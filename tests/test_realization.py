"""Tests for the matrix realization of the blocks.

The generator matrices are read off the ladder sweep's verified action
tables, and the corner matrix-unit law is derived from its premises, so
most tests here compare an independent route against the matrix route:
generator matrices versus coordinates solved from fresh products, the
derived matrix-unit law versus every corner product expanded,
algebra products versus matrix products, predicted unit-entry patterns
versus realized support, the central elements summed from named
elements versus the ones solved from their matrix prescriptions, the
degree-zero commutator system of a block center versus the full one
over every element and generator.  Most tests run at (2,3); the central
elements and block centers are also compared at (3,2), the centers on
the (3,4) edge-1 block too, the K-weight selection of their degree-zero
elements is checked at (2,3), (3,2), (2,5) and (3,4), and the larger
pairs are covered by the acceptance smoke test.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from conftest import A23, B23, R23, block_shape_checks

from qpair.algebra import Algebra
from qpair.cli import Session
from qpair.algebra import AlgebraElement
from qpair.ideals import BlockLabel, BlockSystem, LadderFailure
from qpair.linalg import IncrementalSpan, Matrix, nullspace
from qpair.modules import SimpleModuleSpec, simple_action
from qpair.realization import (GENERATOR_NAMES, ProjectiveSummand, Realization,
                               diagonal_exponents, pbw_matrices, twisted_trace)
from qpair.report import RunConfig

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


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_ideal_basis_sits_at_its_flat_position(pair):
    R = R23 if pair == (2, 3) else Realization(
        BlockSystem(Algebra.for_pair(*pair)))
    B = R.system
    for label in B.block_labels():
        for S in B.summands_of(label):
            lay = R.layout(S)
            for s1 in range(1, S.r1 + 1):
                for s2 in range(1, S.r2 + 1):
                    basis = B.ideal_basis(*S, s1, s2)
                    assert len(basis) == lay.dim
                    for i, el in enumerate(basis):
                        assert lay.flat(el.family, el.arrow,
                                        el.idx1, el.idx2) == i


def test_summands_in_reading_order():
    assert B23.summands_of(BlockLabel(1, 3)) == (
        ProjectiveSummand(1, 1, 3), ProjectiveSummand(-1, 1, 3))
    assert B23.summands_of(BlockLabel(2, 1)) == (
        ProjectiveSummand(1, 2, 1), ProjectiveSummand(-1, 2, 2))
    assert B23.summands_of(BlockLabel(1, 1)) == (
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
    # products; an explicit left-to-right generator chain is the reference.
    # Every PBW monomial w K^ell is checked: the word's matrix with column
    # c scaled by zeta^(s_c ell) against the chain times K's matrix power.
    summand = ProjectiveSummand(1, 1, 1)
    gens = {g: R23.generator_matrix(summand, g) for g in GENERATOR_NAMES}
    ident = Matrix.identity(FIELD, R23.layout(summand).dim)
    mats = list(pbw_matrices(A23.params, gens))
    assert len(mats) == (A23.p1 * A23.p2) ** 2
    assert mats[0] == ident                                 # word 1
    assert R23.monomial_matrices(summand) == mats
    k_exp = R23.k_exponents(summand)
    for m in MONOS:
        want = ident
        for gen, power in zip(GENERATOR_NAMES, m):
            for _ in range(power):
                want = want * gens[gen]
        got = Matrix(FIELD, ident.nrows)
        got.add_column_scaled(mats[A23.word_index(m)], {
            c: A23.params.zeta(s * m.ell) for c, s in enumerate(k_exp)})
        assert got == want, m


def test_represent_matches_columnwise_products():
    # matrix of x, column j == coordinates of x * (j-th ideal basis vector),
    # solved over a tracked span of the basis
    for summand in (ProjectiveSummand(1, 1, 3), ProjectiveSummand(1, 1, 1)):
        els = B23.ideal_basis(*summand, 1, 1)
        span = IncrementalSpan(FIELD, track=True)
        for el in els:
            assert span.add(_as_vector(el.value))
        for _ in range(8):
            x = A23.monomial_element(rng.choice(MONOS))
            mat = R23.represent(x, summand)
            j = rng.randrange(len(els))
            image = x * els[j].value
            if image.is_zero():
                assert j not in mat
            else:
                assert mat.get(j) == span.coordinates(_as_vector(image))


def test_represent_equals_sum_of_monomial_matrices():
    # represent reads each projector term off the word matrices; the
    # reference sums coefficient times word matrix times K's matrix power
    # over the PBW terms, on every summand for named elements of every
    # block
    summands = sorted({S for lab in B23.block_labels()
                       for S in B23.summands_of(lab)})
    sample = []
    for lab in B23.block_labels():
        els = R23.block_realization(lab).elements
        sample.extend(rng.sample(els, min(4, len(els))))
    for S in summands:
        kmat = R23.generator_matrix(S, "K")
        assert kmat.is_diagonal() and len(kmat) == R23.layout(S).dim
        words = R23.monomial_matrices(S)
        for el in sample:
            want = Matrix(FIELD, R23.layout(S).dim)
            for m, c in el.value.pbw_terms().items():
                want = want + words[A23.word_index(m)] * kmat ** m.ell * c
            assert R23.represent(el.value, S) == want, (S, el.family)


def test_represent_refuses_a_non_diagonal_k():
    summand = ProjectiveSummand(1, 1, 3)
    real = Realization(B23)
    gens = {g: R23.generator_matrix(summand, g) for g in GENERATOR_NAMES}
    real._gen_mats[summand] = dict(gens, K=gens["K"] + gens["e1"])
    with pytest.raises(ArithmeticError, match="ProjectiveSummand"):
        real.represent(A23.one(), summand)


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


def _solved_generator_matrix(system, summand, gen):
    """The generator's matrix from fresh products in the algebra, each
    column solved over a tracked span of the slot-(1, 1) ideal basis."""
    A = system.algebra
    field = A.params.field
    els = system.ideal_basis(*summand, 1, 1)
    span = IncrementalSpan(field, track=True)
    for el in els:
        span.add({A.monomial_index(m): c for m, c in el.value.terms.items()})
    g = A.generator(gen)
    out = Matrix(field, len(els))
    for j, el in enumerate(els):
        image = g * el.value
        if image.is_zero():
            continue
        coords = span.coordinates(
            {A.monomial_index(m): c for m, c in image.terms.items()})
        assert coords is not None, (summand, gen, j)
        out[j] = dict(coords)
    return out


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_generator_matrices_match_the_solved_products(pair, monkeypatch):
    # after the ladder sweep and on demand, on every summand and generator
    A = Algebra.for_pair(*pair)
    swept, fresh = BlockSystem(A), BlockSystem(A)
    for label in swept.block_labels():
        swept.verify_ladder_relations(label)
    summands = [S for label in swept.block_labels()
                for S in swept.summands_of(label)]
    want = {(S, g): _solved_generator_matrix(fresh, S, g)
            for S in summands for g in GENERATOR_NAMES}
    # reading the swept tables makes no product and solves nothing
    true_mul = AlgebraElement.__mul__

    def scalar_only(x, y):
        assert not isinstance(y, AlgebraElement), "a product in the algebra"
        return true_mul(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraElement, "__mul__", scalar_only)
        patch.setattr(IncrementalSpan, "coordinates", None)
        read = Realization(swept)
        got = {(S, g): read.generator_matrix(S, g)
               for S in summands for g in GENERATOR_NAMES}
    assert got == want
    demand = Realization(fresh)
    for (S, g), matrix in want.items():
        assert demand.generator_matrix(S, g) == matrix, (S, g)


def _expanded_matrix_unit_failures(real_block, system):
    """Every ordered pair of corner elements multiplied in the algebra and
    compared with the matrix-unit law's want; the number of failures."""
    bad = 0
    zero = system.algebra.zero()
    for x in real_block.elements:
        for y in real_block.elements:
            if (x.s1 - 1, x.s2 - 1) == (y.idx1, y.idx2):
                want = system.build_named_element(
                    "B", "down", x.alpha, x.r1, x.r2, y.s1, y.s2,
                    x.idx1, x.idx2).value
            else:
                want = zero
            if x.value * y.value != want:
                bad += 1
    return bad


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_matrix_unit_products_match_the_expanded_products(pair):
    B = B23 if pair == (2, 3) else BlockSystem(Algebra.for_pair(*pair))
    R = R23 if pair == (2, 3) else Realization(B)
    corners = [label for label in B.block_labels()
               if not B.block_ladders(label)]
    assert len(corners) == 2
    for label in corners:
        real = R.block_realization(label)
        n = len(real.elements)
        assert n == (pair[0] * pair[1]) ** 2
        assert _expanded_matrix_unit_failures(real, B) == 0
        units = R.verify_block_shape(label)[1]
        assert units.check_id.endswith(".matrix-unit-products")
        assert units.passed
        assert units.scope.startswith(
            f"derived: {n * n} ordered products, none expanded")


def test_matrix_unit_products_name_a_failed_premise(monkeypatch):
    label = BlockLabel(2, 3)
    R = Realization(B23)
    prefix = "realization[2,3]"
    tail = "; the matrix-unit law is derived from it"

    def units():
        return R.verify_block_shape(label)[:2]

    true_block = R.block_realization

    def first_twice(lab):
        # the first element listed twice: every matrix still matches its
        # prediction, but the block's tuples have rank 35 of 36
        real = true_block(lab)
        real.elements[1] = real.elements[0]
        real.matrices[1] = real.matrices[0]
        return real

    action, law = units()
    assert action.passed and law.passed
    with monkeypatch.context() as patch:
        patch.setattr(R, "block_realization", first_twice)
        action, law, *rest = R.verify_block_shape(label)
        assert action.passed and not law.passed
        assert law.detail == f"premise {prefix}.faithful fails{tail}"
        assert [c.check_id for c in rest if not c.passed] == [
            f"{prefix}.faithful", f"{prefix}.dimension"]
    true = R.expected_matrix
    with monkeypatch.context() as patch:
        patch.setattr(R, "expected_matrix", lambda el, S: (
            Matrix(FIELD, R.layout(S).dim) if (el.idx1, el.idx2) == (0, 0)
            else true(el, S)))
        action, law = units()
        assert not action.passed and not law.passed
        assert law.detail == f"premise {prefix}.action-table fails{tail}"
    failure = LadderFailure("e1", 0, "ladder[2,3].dir1.lower.bottom", "x")
    with monkeypatch.context() as patch:
        patch.setattr(B23, "ladder_failures", lambda *entry: (failure,))
        action, law = units()
        assert action.passed and not law.passed
        assert law.detail == (
            f"premise ladder[2,3].dir1.lower.bottom fails{tail}")
    assert units()[1].passed


def test_unit_preimage_compares_the_summed_slots(monkeypatch):
    # derived: the drop-free central element and the block idempotent sum
    # the same slots; a slot missing from one side fails the check
    label = BlockLabel(1, 1)
    true = B23.central_slots
    R = Realization(B23)
    monkeypatch.setattr(B23, "central_slots", lambda lab, flags: (
        true(lab, flags)[1:] if not flags else true(lab, flags)))
    checks = {c.check_id: c for c in R.verify_central_elements(label)}
    assert not checks["realization[1,1].unit-preimage"].passed
    assert not checks["realization[1,1].central-preimages"].passed


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
        rows = [c for c in block_shape_checks(lab)
                if c.check_id.endswith((".action-table",
                                        ".matrix-unit-products"))]
        assert len(rows) == (1 if B23.block_ladders(lab) else 2), lab
        for check in rows:
            assert check.passed, check.row()


def test_block_shapes_all_blocks():
    for lab in B23.block_labels():
        for check in block_shape_checks(lab):
            assert check.passed, check.row()


def _matrices_held(obj, ids, seen=None):
    """Matrices with an id in ``ids`` reachable from ``obj`` through
    dicts, lists, tuples and sets, the containers a cache is made of."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, Matrix):
        return int(id(obj) in ids)
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    else:
        return 0
    return sum(_matrices_held(item, ids, seen) for item in items)


def test_shapes_suite_realizes_each_block_once_and_keeps_nothing(
        monkeypatch):
    session = Session(RunConfig(p1=2, p2=3, suites=("shapes",)))
    R = session.realization
    true_block = R.block_realization
    built = []

    def counted(label):
        real = true_block(label)
        built.append(real)
        return real

    monkeypatch.setattr(R, "block_realization", counted)
    assert all(c.passed for c in session.suite_shapes())
    labels = B23.block_labels()
    assert [real.label for real in built] == labels
    # the suite's realizations are still alive here, so no id is reused
    ids = {id(mat) for real in built for mats in real.matrices
           for mat in mats}
    assert _matrices_held(vars(R), ids) == 0


@pytest.mark.parametrize("k, arrow, s, columns, failing", [
    # B/up(0, 0) loses its (down, down) entry: the sub-blocks differ
    (0, "up", 0, {0: [0]}, ("action-table", "repeated-diagonals")),
    # B/down(0, 0) gains an (up, down) entry, outside the template
    (9, "down", 0, {0: [9], 9: [0]}, ("action-table", "forced-zeros")),
    # the plus-sign B/left(0, 0) leaves the re-entry cell
    (3, "left", 1, {}, ("action-table", "reentry-cell-family")),
])
def test_a_wrong_matrix_fails_the_rows_that_read_its_cells(
        monkeypatch, k, arrow, s, columns, failing):
    # one matrix of block (1,3) replaced: its one split into cells serves
    # forced-zeros, repeated-diagonals and the re-entry cell, and only the
    # rows whose cells changed fail
    R = Realization(B23)
    true_block = R.block_realization

    def replaced(lab):
        real = true_block(lab)
        el = real.elements[k]
        assert (el.arrow, el.alpha, el.idx1, el.idx2) == (arrow, 1, 0, 0)
        mats = list(real.matrices[k])
        mats[s] = Matrix(FIELD, mats[s].nrows, columns={
            col: dict.fromkeys(rows, FIELD.one)
            for col, rows in columns.items()})
        real.matrices[k] = tuple(mats)
        return real

    monkeypatch.setattr(R, "block_realization", replaced)
    failed = [c.check_id for c in R.verify_block_shape(BlockLabel(1, 3))
              if not c.passed]
    assert failed == [f"realization[1,3].{row}" for row in failing]


def test_unit_matrix_check_reads_every_other_summand(monkeypatch):
    # each block's unit carries the last block's idempotent too: it is
    # still the identity on its own summands, but not zero on the last
    # block's summands, which the check must read
    labels = B23.block_labels()
    block_idempotent = B23.block_idempotent
    monkeypatch.setattr(B23, "block_idempotent", lambda label: (
        block_idempotent(label) + block_idempotent(labels[-1])))
    for label in labels[:-1]:
        checks = {c.check_id: c for c in R23.verify_block_shape(label)}
        check = checks[f"realization[{label.r1},{label.r2}].unit-matrix"]
        assert not check.passed, check.row()


def test_unit_matrix_detail_counts_the_other_summands():
    counts = {}
    for lab in B23.block_labels():
        (check,) = [c for c in block_shape_checks(lab)
                    if c.check_id.endswith(".unit-matrix")]
        own = len(B23.summands_of(lab))
        counts[lab] = 12 - own
        assert check.detail == (
            f"block idempotent acts as the identity on its {own} own "
            f"summands and as zero on the {12 - own} summands of the other "
            f"blocks")
    assert sum(counts.values()) == 60


def test_reentry_check_is_marked_corrected():
    checks = block_shape_checks(BlockLabel(1, 3))
    statuses = {c.check_id: c.status for c in checks}
    assert statuses["realization[1,3].reentry-cell-family"] == "erratum-corrected"


# ----------------------------------------------------------------------
# central elements and block centers
# ----------------------------------------------------------------------

def test_central_elements_all_blocks():
    for lab in B23.block_labels():
        for check in R23.verify_central_elements(lab):
            assert check.passed, check.row()


def test_center_dimension_names_a_failed_faithful_premise(monkeypatch):
    # the center's nullspace drops K's rows and the nonzero-degree
    # columns because the block acts faithfully: with the block's
    # faithful row failed, center-dimension fails and names it; with the
    # shapes suite not run, its scope says the premise went unchecked
    label = BlockLabel(2, 3)
    prefix = "realization[2,3]"
    R = Realization(B23)

    def center_row():
        (check,) = [c for c in R.verify_central_elements(label)
                    if c.check_id == f"{prefix}.center-dimension"]
        return check

    def faithful_row():
        return next(c for c in R.verify_block_shape(label)
                    if c.check_id == f"{prefix}.faithful")

    unchecked = center_row()
    assert unchecked.passed and "premise" not in unchecked.detail
    assert unchecked.scope.endswith(
        "; premise faithful not checked in this run")
    true_block = R.block_realization

    def first_twice(lab):
        # the first element listed twice: rank 35 of 36
        real = true_block(lab)
        real.elements[1] = real.elements[0]
        real.matrices[1] = real.matrices[0]
        return real

    with monkeypatch.context() as patch:
        patch.setattr(R, "block_realization", first_twice)
        assert not faithful_row().passed
    failed = center_row()
    assert not failed.passed
    assert failed.detail == (
        f"commutator nullspace dimension 1 (expected 1); the central "
        f"family spans 1; premise {prefix}.faithful fails")
    assert failed.scope.endswith(
        f"; premise {prefix}.faithful from the shapes suite")
    assert faithful_row().passed
    assert center_row().passed


def test_center_dimensions():
    dims ={tuple(lab): R23.center_dimension(lab) for lab in B23.block_labels()}
    assert dims == {(1, 1): 9, (1, 3): 3, (2, 1): 3, (2, 2): 3,
                    (2, 3): 1, (0, 3): 1}
    assert sum(dims.values()) == 20


@lru_cache(maxsize=None)
def _realization(pair):
    if pair == (2, 3):
        return R23
    return Realization(BlockSystem(Algebra.for_pair(*pair)))


def _reference_commutator_equations(R, label):
    """The center's equations as the nonzero entries of M * G - G * M,
    computed with two full Matrix products per (element, summand,
    generator)."""
    real = R.block_realization(label)
    equations = {}
    for s_idx, S in enumerate(real.summands):
        gens = [R.generator_matrix(S, g) for g in GENERATOR_NAMES]
        for k, mats in enumerate(real.matrices):
            M = mats[s_idx]
            for g_idx, G in enumerate(gens):
                for col, rows in (M * G - G * M).items():
                    for row, val in rows.items():
                        equations.setdefault(
                            (s_idx, g_idx, row, col), {})[k] = val
    return equations


def _degree_zero_columns(R, label):
    return {k for k, _ in R.degree_zero_elements(label)[0]}


def _restricted(equations, columns):
    """The equations with every column outside ``columns`` dropped, and
    the equations left empty dropped with them."""
    out = {}
    for key, row in equations.items():
        kept = {k: v for k, v in row.items() if k in columns}
        if kept:
            out[key] = kept
    return out


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (2, 5), (3, 4)])
def test_degree_zero_selection_is_the_degree_of_every_element(pair):
    # the K-weight selection, made before any element is built, picks
    # exactly the block elements whose terms w 1_j all have degree (0, 0)
    R = _realization(pair)
    for lab in R.system.block_labels():
        elements = R.block_realization(lab).elements
        selected, count = R.degree_zero_elements(lab)
        assert count == len(elements), lab
        degree_zero = set()
        for k, el in enumerate(elements):
            degrees = {(m1 - n1, m2 - n2)
                       for m1, m2, n1, n2, _ in el.value.terms}
            assert len(degrees) == 1, (lab, k)
            if degrees == {(0, 0)}:
                degree_zero.add(k)
        assert [k for k, _ in selected] == sorted(degree_zero), lab
        assert all(el is elements[k] for k, el in selected), lab


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_commutator_equations_match_the_matrix_product_reference(pair):
    # the reference has every block element and all five generators; on
    # the degree-zero columns it is the solved system, and K's rows are
    # empty there
    R = _realization(pair)
    k_idx = GENERATOR_NAMES.index("K")
    total = full = 0
    for lab in R.system.block_labels():
        got = R.commutator_equations(lab)
        reference = _reference_commutator_equations(R, lab)
        restricted = _restricted(reference, _degree_zero_columns(R, lab))
        assert got == restricted, lab
        assert not any(key[1] == k_idx for key in restricted), lab
        R.center_basis(lab)
        assert R._centers[lab][1] == len(got)
        total += len(got)
        full += len(reference)
    assert full == 4172
    assert total == 524


def test_commutator_equations_match_the_reference_on_the_34_boundary():
    R = _realization((3, 4))
    label = BlockLabel(1, 4)
    assert R.system.block_kind(label) == "edge-1"
    reference = _reference_commutator_equations(R, label)
    assert len(reference) == 2754
    got = R.commutator_equations(label)
    assert len(got) == 162
    assert got == _restricted(reference, _degree_zero_columns(R, label))


@pytest.mark.parametrize("pair, labels", [
    ((2, 3), None), ((3, 2), None), ((3, 4), (BlockLabel(1, 4),))])
def test_center_basis_is_the_full_system_nullspace(pair, labels):
    # vector for vector, against the nullspace of every block element
    # under all five generators
    R = _realization(pair)
    for lab in labels or R.system.block_labels():
        reference = nullspace(R.params.field,
                              _reference_commutator_equations(R, lab).values(),
                              len(R.block_realization(lab).elements))
        assert R.center_basis(lab) == reference, lab


def _no_block_realization(lab):
    raise AssertionError(f"block_realization({lab}) was called")


def test_center_dimension_builds_no_block_realization(monkeypatch):
    # the (3,4) edge-1 center reads its 24 degree-zero elements of 288;
    # the generator matrices need the slot-(1, 1) ideal basis of each of
    # the two summands (24 elements each); with the ladder predecessors
    # the degree-zero elements are built from, 112 named elements are
    # built, where the full block has 288
    R = Realization(BlockSystem(Algebra.for_pair(3, 4)))
    monkeypatch.setattr(R, "block_realization", _no_block_realization)
    label = BlockLabel(1, 4)
    assert R.center_dimension(label) == 3
    selected, count = R.degree_zero_elements(label)
    assert (len(selected), count) == (24, 288)
    assert len(R.system._memo) == 112


def test_center_and_radford_build_no_block_realization(monkeypatch):
    # the central elements are sums of named elements, so neither suite
    # needs the matrices of every block element
    session = Session(RunConfig(p1=2, p2=3, suites=("center", "radford")))
    monkeypatch.setattr(session.realization, "block_realization",
                        _no_block_realization)
    assert all(c.passed for c in session.suite_center())
    assert all(c.passed for c in session.suite_radford())


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_center_basis_vectors_are_central_in_the_algebra(pair):
    # independent of the matrices: each basis vector's combination of the
    # block elements commutes with every generator in the algebra itself,
    # and there are 3^(ladder copies of the block) of them, as the paper
    # counts
    R = _realization(pair)
    A = R.algebra
    gens = [A.generator(g) for g in ("e1", "e2", "f1", "f2", "K")]
    for lab in R.system.block_labels():
        elements = R.block_realization(lab).elements
        basis = R.center_basis(lab)
        assert len(basis) == 3 ** len(R.system.block_ladders(lab)), lab
        for vec in basis:
            z = A.zero()
            for k, c in vec.items():
                z = z + elements[k].value * c
            assert not z.is_zero(), lab
            for g in gens:
                assert z * g == g * z, (lab, vec)


def test_preimage_round_trip():
    # each central element's matrices are its prescription
    lab = BlockLabel(1, 3)
    prescriptions = R23.central_prescriptions(lab)
    summands = B23.summands_of(lab)
    for name, z in R23.central_elements(lab).items():
        for S, want in zip(summands, prescriptions[name]):
            assert R23.represent(z, S) == want, name


def _reference_central_elements(R, label):
    """The central elements solved from their prescriptions: coordinates
    of each prescription's matrices, flattened over the summands, in the
    tracked span of every block element's flattened matrices."""
    real = R.block_realization(label)
    dims = [R.layout(S).dim for S in real.summands]

    def flatten(mats):
        vec, base = {}, 0
        for mat, d in zip(mats, dims):
            for col, rows in mat.items():
                for row, val in rows.items():
                    vec[base + col * d + row] = val
            base += d * d
        return vec

    span = IncrementalSpan(R.params.field, track=True)
    for mats in real.matrices:
        span.add(flatten(mats))
    out = {}
    for name, mats in R.central_prescriptions(label).items():
        coords = span.coordinates(flatten(mats))
        assert coords is not None, (label, name)
        z = R.algebra.zero()
        for k, c in coords.items():
            z = z + real.elements[k].value * c
        out[name] = z
    return out


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_central_elements_match_the_solved_preimages(pair):
    # the named sums equal the unique block elements realizing the
    # prescriptions, on every block and drop
    R = _realization(pair)
    drops = 0
    for lab in R.system.block_labels():
        reference = _reference_central_elements(R, lab)
        assert R.central_elements(lab) == reference, lab
        drops += len(reference)
    assert drops == 20


def test_unrealizable_prescription_fails_only_central_preimages(monkeypatch):
    # a lone unit entry without its repeated-diagonal partner is the matrix
    # of no block element: central-preimages fails on the touched blocks,
    # naming the drop, every block keeps all its rows, and radford runs
    touched = (BlockLabel(1, 1), BlockLabel(1, 3))
    original = Realization.central_prescriptions

    def lone_entry(self, label):
        out = original(self, label)
        if label in touched:
            name = list(out)[1]
            first = out[name][0].ncols
            out[name] = [Matrix(FIELD, first, columns={0: {0: FIELD.one}})] + [
                Matrix(FIELD, m.ncols) for m in out[name][1:]]
        return out

    monkeypatch.setattr(Realization, "central_prescriptions", lone_entry)
    session = Session(RunConfig(p1=2, p2=3, suites=("center", "radford")))
    checks = session.suite_center()
    rows = ("central-preimages", "unit-preimage", "drop-squares",
            "center-dimension")
    for lab in B23.block_labels():
        prefix = f"realization[{lab.r1},{lab.r2}]"
        got = {c.check_id: c for c in checks if c.check_id.startswith(prefix)}
        assert sorted(got) == sorted(f"{prefix}.{row}" for row in rows), lab
        for row in rows:
            check = got[f"{prefix}.{row}"]
            assert check.passed == (lab not in touched
                                    or row != "central-preimages"), check.row()
        if lab in touched:
            dropped = list(original(session.realization, lab))[1]
            assert dropped in got[f"{prefix}.central-preimages"].detail
    assert all(c.passed for c in session.suite_radford())


def test_group_trace_of_unit():
    lab = BlockLabel(1, 3)
    summand = B23.summands_of(lab)[0]
    unit = R23.represent(B23.block_idempotent(lab), summand)
    lay = R23.layout(summand)
    off = lay.offsets[("B", "up")]
    h1, h2 = lay.sizes[("B", "up")]
    got = twisted_trace(A23.params, [unit], R23.k_exponents(summand),
                        [(off + t, off + t) for t in range(h1 * h2)])
    assert got[0] == A23.params.rational(3)    # family size 1 x 3


def test_diagonal_exponents_read_the_roots_and_refuse_the_rest():
    F = FIELD
    kmat = Matrix(F, 3, columns={0: {0: F.zeta(4)}, 1: {1: F.minus_one},
                                 2: {2: F.make(F.zeta(7).num)}})  # untagged
    assert diagonal_exponents(F, kmat, "K") == [4, 12, 7]
    for bad in ({0: {0: F.one}, 1: {1: F.from_rational(2)}},
                {0: {0: F.one}, 1: {0: F.one, 1: F.one}},
                {0: {0: F.one}, 1: {0: F.one}},
                {0: {0: F.one}, 1: {1: F.zeta(2) * Fraction(1, 2)}},
                {0: {0: F.one}}):
        with pytest.raises(ArithmeticError, match="on K \\(column 1\\)"):
            diagonal_exponents(F, Matrix(F, 2, columns=bad), "K")


def test_twisted_trace_reads_the_cells_of_the_matrix_products():
    # rho(K^t w K^ell) built by matrix products and summed over the upper
    # triangle, diagonal included, on a simple module and on a projective
    # summand: off the diagonal s_r != s_c, and the cells are not
    # symmetric, so the row and column exponents and the cell orientation
    # are each read
    P = A23.params
    gens = {g: simple_action(P, SimpleModuleSpec(1, 2, 3), g)
            for g in GENERATOR_NAMES}
    summand = B23.summands_of(BlockLabel(1, 3))[0]
    cases = ((list(pbw_matrices(P, gens)), gens["K"]),
             (R23.monomial_matrices(summand),
              R23.generator_matrix(summand, "K")))
    for words, kmat in cases:
        k_exp = diagonal_exponents(P.field, kmat, "K")
        n = kmat.ncols
        cells = [(r, c) for r in range(n) for c in range(r, n)]
        assert any(word[r, c] and k_exp[r] != k_exp[c]
                   for word in words for r, c in cells)
        k_pow = [Matrix.identity(P.field, n)]
        for _ in range(P.korder - 1):
            k_pow.append(k_pow[-1] * kmat)
        for shift in (0, P.p2 - P.p1, 5):
            want = {}
            for w, word in enumerate(words):
                left = k_pow[shift % P.korder] * word
                for ell in range(P.korder):
                    mat = left * k_pow[ell]
                    val = sum((mat[r, c] for r, c in cells), P.zero)
                    if not val.is_zero():
                        want[w * P.korder + ell] = val
            assert twisted_trace(P, words, k_exp, cells, shift) == want, shift
