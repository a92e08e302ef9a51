"""Tests for the matrix realization of the blocks.

The realized matrices are produced by honest product expansion (each
generator column is a coordinate solve over the ideal span), so most
tests here compare an independent route against the matrix route:
algebra products versus matrix products, predicted unit-entry patterns
versus realized support, commutator nullspaces versus the solved
central family.  Everything runs at (2,3); the larger pairs are covered
by the acceptance smoke test.
"""

import random

import pytest
from conftest import A23, B23, R23, action_table_checks, block_shape_checks

from qpair.ideals import BlockLabel
from qpair.linalg import Matrix
from qpair.realization import GENERATOR_NAMES, ProjectiveSummand, pbw_matrices

FIELD = A23.params.field

rng = random.Random(61412)

MONOS = list(A23.basis_monomials())


def _as_vector(x):
    return {A23.monomial_index(m): c for m, c in x.terms.items()}


# ----------------------------------------------------------------------
# layouts
# ----------------------------------------------------------------------

def test_layout_dimensions_per_kind():
    assert R23.layout(ProjectiveSummand(1, 2, 3)).dim == 6     # corner
    assert R23.layout(ProjectiveSummand(1, 1, 3)).dim == 12    # edge-1
    assert R23.layout(ProjectiveSummand(-1, 2, 1)).dim == 12   # edge-2
    assert R23.layout(ProjectiveSummand(1, 1, 1)).dim == 24    # interior
    # interior family count: four letters times four arrows
    assert len(R23.layout(ProjectiveSummand(1, 1, 1)).families) == 16


def test_layout_flat_is_first_index_fastest():
    lay = R23.layout(ProjectiveSummand(1, 2, 3))
    assert lay.flat("B", "down", 0, 0) == 0
    assert lay.flat("B", "down", 1, 0) == 1
    assert lay.flat("B", "down", 0, 1) == 2
    with pytest.raises(IndexError):
        lay.flat("B", "down", 2, 0)
    with pytest.raises(KeyError):
        lay.flat("B", "up", 0, 0)   # corners have a single family


def test_summands_in_reading_order():
    assert R23.summands_of(BlockLabel(1, 3)) == (
        ProjectiveSummand(1, 1, 3), ProjectiveSummand(-1, 1, 3))
    assert R23.summands_of(BlockLabel(2, 1)) == (
        ProjectiveSummand(1, 2, 1), ProjectiveSummand(-1, 2, 2))
    assert R23.summands_of(BlockLabel(1, 1)) == (
        ProjectiveSummand(1, 1, 1), ProjectiveSummand(-1, 1, 1),
        ProjectiveSummand(-1, 1, 2), ProjectiveSummand(1, 1, 2))


# ----------------------------------------------------------------------
# honesty of the matrix route
# ----------------------------------------------------------------------

def test_monomials_factor_into_generator_powers():
    # the matrix construction multiplies generator-power matrices; this is
    # sound because the basis monomial *is* that product in the algebra
    e1, e2 = A23.generator("e1"), A23.generator("e2")
    f1, f2 = A23.generator("f1"), A23.generator("f2")
    K = A23.generator("K")
    for _ in range(10):
        m = rng.choice(MONOS)
        word = A23.one()
        for gen, power in ((e1, m[0]), (e2, m[1]), (f1, m[2]),
                           (f2, m[3]), (K, m[4])):
            for _ in range(power):
                word = word * gen
        assert word == A23.monomial_element(m)


def test_pbw_matrices_are_generator_products():
    # pbw_matrices skips products with the identity and shares partial
    # products; an explicit left-to-right generator chain is the reference
    summand = ProjectiveSummand(1, 1, 1)
    gens = {g: R23.generator_matrix(summand, g) for g in GENERATOR_NAMES}
    ident = Matrix.identity(FIELD, R23.layout(summand).dim)
    mats = list(pbw_matrices(A23.params, gens))
    assert len(mats) == len(MONOS)
    assert mats[A23.monomial_index(MONOS[0])] == ident      # monomial 1
    for m, got in zip(MONOS, mats):
        want = ident
        for gen, power in zip(GENERATOR_NAMES, m):
            for _ in range(power):
                want = want * gens[gen]
        assert got == want, m
    assert R23.monomial_matrices(summand) == mats


def test_represent_matches_columnwise_products():
    # matrix of x, column j == coordinates of x * (j-th ideal basis vector)
    for summand in (ProjectiveSummand(1, 1, 3), ProjectiveSummand(1, 1, 1)):
        els, span = R23._basis(summand)
        for _ in range(8):
            x = A23.monomial_element(rng.choice(MONOS))
            mat = R23.represent(x, summand)
            j = rng.randrange(len(els))
            image = x * els[j].value
            if image.is_zero():
                assert j not in mat
            else:
                assert mat.get(j) == span.coordinates(_as_vector(image))


def test_represent_is_multiplicative_sampled():
    summand = ProjectiveSummand(-1, 1, 2)
    for _ in range(12):
        x = A23.monomial_element(rng.choice(MONOS))
        y = A23.monomial_element(rng.choice(MONOS))
        left = R23.represent(x * y, summand)
        right = R23.represent(x, summand) * R23.represent(y, summand)
        assert left == right


def test_identity_represents_as_identity():
    for summand in (ProjectiveSummand(1, 2, 3), ProjectiveSummand(-1, 2, 2),
                    ProjectiveSummand(1, 1, 1)):
        dim = R23.layout(summand).dim
        assert R23.represent(A23.one(), summand) == Matrix.identity(FIELD, dim)


def test_corner_elements_are_matrix_units():
    # flat positions: row = own index pair, column = slot pair
    summand = ProjectiveSummand(1, 2, 3)
    lay = R23.layout(summand)
    one = FIELD.one
    for (s1, s2, i1, i2) in ((1, 1, 0, 0), (2, 3, 1, 2), (1, 2, 1, 1)):
        el = B23.build_named_element("B", "down", 1, 2, 3, s1, s2, i1, i2)
        mat = R23.represent(el.value, summand)
        row = lay.flat("B", "down", i1, i2)
        col = lay.flat("B", "down", s1 - 1, s2 - 1)
        assert mat == Matrix(FIELD, lay.dim, columns={col: {row: one}})


# ----------------------------------------------------------------------
# predicted patterns (frozen from the displayed actions)
# ----------------------------------------------------------------------

def test_expected_pattern_edge_reentry_cell():
    # minus-sign summand of the (1,3) block: the plus-sign left family
    # re-enters at (down, right); the minus-sign left family sits at
    # (left, up).  This is the adjudicated mixed-label display entry.
    minus = ProjectiveSummand(-1, 1, 3)
    lay = R23.layout(minus)
    plus_left = B23.build_named_element("B", "left", 1, 1, 3, 1, 1, 0, 0)
    want = Matrix(FIELD, lay.dim, columns={
        lay.flat("B", "right", 0, 0): {lay.flat("B", "down", 0, 0): FIELD.one}})
    assert R23.expected_matrix(plus_left, minus) == want
    minus_left = B23.build_named_element("B", "left", -1, 1, 3, 1, 1, 0, 0)
    got = R23.expected_matrix(minus_left, minus)
    assert list(got) == [lay.flat("B", "up", 0, 0)]
    assert list(got.get(lay.flat("B", "up", 0, 0))) == [lay.flat("B", "left", 0, 0)]


def test_expected_pattern_interior_top_element():
    # a top-letter element with matching labels acts on the four diagonal
    # (letter, arrow) positions fixed by the repeated-diagonal shape
    summand = ProjectiveSummand(1, 1, 1)
    lay = R23.layout(summand)
    el = B23.build_named_element("T", "up", 1, 1, 1, 1, 1, 0, 0)
    mat = R23.expected_matrix(el, summand)
    cells = {(row, col) for col, rows in mat.items() for row in rows}
    want = {(lay.flat(X, a, 0, 0), lay.flat(X, a, 0, 0))
            for X in ("T", "B") for a in ("up", "down")}
    assert cells == want


def test_expected_pattern_respects_sign_tags():
    # corner ideals only ever see their own sign
    minus_corner = B23.build_named_element("B", "down", -1, 2, 3, 1, 1, 0, 0)
    assert R23.expected_matrix(minus_corner, ProjectiveSummand(1, 2, 3)) \
        == Matrix.zeros(FIELD, 6)
    # the down arrow occurs in the inner template only with the base sign,
    # so a sign-flipped down element with matching labels still acts as zero
    el = B23.build_named_element("T", "down", -1, 1, 1, 1, 1, 0, 0)
    assert R23.expected_matrix(el, ProjectiveSummand(1, 1, 1)) \
        == Matrix.zeros(FIELD, 24)


# ----------------------------------------------------------------------
# full verification sweeps
# ----------------------------------------------------------------------

def test_action_tables_all_blocks():
    for lab in B23.block_labels():
        for check in action_table_checks(lab):
            assert check.passed, check.row()


def test_block_shapes_all_blocks():
    for lab in B23.block_labels():
        for check in block_shape_checks(lab):
            assert check.passed, check.row()


def test_reentry_check_is_marked_corrected():
    checks = block_shape_checks(BlockLabel(1, 3))
    statuses = {c.check_id: c.status for c in checks}
    assert statuses["realization[1,3].reentry-cell-family"] == "erratum-corrected"


# ----------------------------------------------------------------------
# central preimages and block centers
# ----------------------------------------------------------------------

def test_central_elements_all_blocks():
    for lab in B23.block_labels():
        for check in R23.verify_central_elements(lab):
            assert check.passed, check.row()


def test_center_dimensions():
    dims = {tuple(lab): R23.center_dimension(lab) for lab in B23.block_labels()}
    assert dims == {(1, 1): 9, (1, 3): 3, (2, 1): 3, (2, 2): 3,
                    (2, 3): 1, (0, 3): 1}
    assert sum(dims.values()) == 20


def test_preimage_round_trip():
    lab = BlockLabel(1, 3)
    prescriptions = R23.central_prescriptions(lab)
    summands = R23.summands_of(lab)
    for mats in prescriptions.values():
        z = R23.solve_central_preimage(lab, mats)
        for S, want in zip(summands, mats):
            assert R23.represent(z, S) == want


def test_preimage_rejects_bad_input():
    lab = BlockLabel(1, 3)
    with pytest.raises(ValueError):
        R23.solve_central_preimage(lab, [Matrix.zeros(FIELD, 12)])  # wrong count
    # a lone unit entry without its repeated-diagonal partner is not the
    # matrix of any block element
    lay = R23.layout(ProjectiveSummand(1, 1, 3))
    up = lay.flat("B", "up", 0, 0)
    lone = Matrix(FIELD, lay.dim, columns={up: {up: FIELD.one}})
    with pytest.raises(ValueError):
        R23.solve_central_preimage(lab, [lone, Matrix.zeros(FIELD, lay.dim)])


def test_group_trace_of_unit():
    lab = BlockLabel(1, 3)
    summand = R23.summands_of(lab)[0]
    unit = R23.represent(B23.block_idempotent(lab), summand)
    got = R23.group_trace(summand, unit, ("B", "up"), ("B", "up"))
    assert got == A23.params.rational(3)    # family size 1 x 3
    assert R23.full_trace(summand, unit) == A23.params.rational(12)
