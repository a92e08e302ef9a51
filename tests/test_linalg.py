"""Tests for the exact linear algebra layer.

The span tracker is the backbone of the rank and matrix-coefficient
computations later on, so its coordinate solve is validated by direct
re-expansion against randomly generated exact field elements.
"""

import random
from fractions import Fraction

import pytest

from qpair.cyclo import CycloField
from qpair.linalg import IncrementalSpan, Matrix, nullspace

FIELD = CycloField(24)


def _random_scalar(rng):
    out = FIELD.zero
    for _ in range(3):
        out = out + FIELD.zeta(rng.randrange(24)) * FIELD.from_rational(
            Fraction(rng.randint(-4, 4)))
    return out


def _random_vector(rng, dim, support=None):
    vec = {}
    for i in range(dim) if support is None else support:
        c = _random_scalar(rng)
        if not c.is_zero():
            vec[i] = c
    return vec


def test_span_rank_saturates():
    rng = random.Random(11)
    span = IncrementalSpan(FIELD)
    added = [span.add(_random_vector(rng, 5)) for _ in range(8)]
    assert span.rank == 5
    assert added[:5] == [True] * 5 and added[5:] == [False] * 3


def test_span_contains():
    one = FIELD.one
    span = IncrementalSpan(FIELD)
    span.add({0: one, 1: one})
    span.add({1: one})
    assert span.contains({0: one})
    assert not span.contains({2: one})
    assert span.contains({})


def test_coordinates_re_expand_exactly():
    rng = random.Random(23)
    inputs = [_random_vector(rng, 6) for _ in range(6)]
    span = IncrementalSpan(FIELD, track=True)
    for v in inputs:
        span.add(v)
    coeffs = [_random_scalar(rng) for _ in inputs]
    target = {}
    for c, v in zip(coeffs, inputs):
        for i, x in v.items():
            target[i] = target.get(i, FIELD.zero) + c * x
    target = {i: c for i, c in target.items() if not c.is_zero()}
    coords = span.coordinates(target)
    assert coords is not None
    rebuilt = {}
    for pos, c in coords.items():
        for i, x in inputs[pos].items():
            rebuilt[i] = rebuilt.get(i, FIELD.zero) + c * x
    rebuilt = {i: c for i, c in rebuilt.items() if not c.is_zero()}
    assert rebuilt == target


def test_coordinates_outside_span_and_untracked():
    span = IncrementalSpan(FIELD, track=True)
    span.add({0: FIELD.one})
    assert span.coordinates({1: FIELD.one}) is None
    bare = IncrementalSpan(FIELD)
    bare.add({0: FIELD.one})
    with pytest.raises(ValueError):
        bare.coordinates({0: FIELD.one})


def test_coordinates_on_dependent_inputs():
    # the third input is the sum of the first two; coordinates may use any
    # valid combination, so only re-expansion is asserted
    one = FIELD.one
    a = {0: one, 1: one}
    b = {1: one, 2: one}
    c = {0: one, 1: one + one, 2: one}
    span = IncrementalSpan(FIELD, track=True)
    for v in (a, b, c):
        span.add(v)
    assert span.rank == 2
    coords = span.coordinates(c)
    rebuilt = {}
    for pos, coeff in coords.items():
        for i, x in (a, b, c)[pos].items():
            rebuilt[i] = rebuilt.get(i, FIELD.zero) + coeff * x
    assert {i: v for i, v in rebuilt.items() if not v.is_zero()} == c


def test_nullspace_small_system():
    one = FIELD.one
    # x0 + x1 = 0 over 3 unknowns -> two free directions
    basis = nullspace(FIELD, [{0: one, 1: one}], 3)
    assert len(basis) == 2
    for vec in basis:
        s = vec.get(0, FIELD.zero) + vec.get(1, FIELD.zero)
        assert s.is_zero()


def test_nullspace_full_rank_is_trivial():
    one = FIELD.one
    eqs = [{0: one}, {1: one}, {2: one}]
    assert nullspace(FIELD, eqs, 3) == []


def _rref_nullspace(rows, dim):
    """Reference: dense Gauss-Jordan, one basis vector per free column."""
    mat = [[row.get(j, FIELD.zero) for j in range(dim)] for row in rows]
    pivots = []
    r = 0
    for col in range(dim):
        hit = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero()),
                   None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = {free: FIELD.one}
        for i, col in enumerate(pivots):
            if not mat[i][free].is_zero():
                vec[col] = -mat[i][free]
        basis.append(vec)
    return basis


def test_nullspace_matches_reduced_echelon_reference():
    rng = random.Random(4242)
    cases = [([], 4), ([{}, {}], 3)]                      # rank 0
    cases.append(([_random_vector(rng, 5) for _ in range(7)], 5))   # full
    for _ in range(25):
        dim = rng.randint(1, 9)
        rows = [_random_vector(rng, dim, rng.sample(range(dim),
                                                    rng.randint(1, dim)))
                for _ in range(rng.randint(1, dim + 2))]
        if rng.random() < 0.4 and rows:
            # a dependent row: the sum of two others
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append({k: a.get(k, FIELD.zero) + b.get(k, FIELD.zero)
                         for k in set(a) | set(b)})
            rows[-1] = {k: v for k, v in rows[-1].items() if not v.is_zero()}
        cases.append((rows, dim))
    ranks = set()
    for rows, dim in cases:
        want = _rref_nullspace(rows, dim)
        assert nullspace(FIELD, rows, dim) == want
        ranks.add(dim - len(want))
    assert 0 in ranks and len(ranks) > 3
    assert nullspace(FIELD, cases[2][0], 5) == []


def _sweep_rows(vectors):
    """Reference: the incremental echelon rows with every reduction done by
    field arithmetic, unit rows included."""
    rows = {}
    for vec in vectors:
        residual = dict(vec)
        while residual and min(residual) in rows:
            lead = min(residual)
            factor = residual[lead]
            for i, c in rows[lead].items():
                tot = residual.get(i, FIELD.zero) - factor * c
                if tot.is_zero():
                    residual.pop(i, None)
                else:
                    residual[i] = tot
        if residual:
            inv = residual[min(residual)].inverse()
            rows[min(residual)] = {i: c * inv for i, c in residual.items()}
    return rows


def test_unit_rows_match_the_arithmetic_sweep():
    # single-entry rows ("x_i = 0") mixed with dense ones: a stored unit row
    # reduces by deletion and a one-entry residual is stored as {lead: 1}
    # without inverting; rows, nullspace and coordinates must not notice
    rng = random.Random(77)
    unit_rows = dense_rows = 0
    for _ in range(30):
        dim = rng.randint(2, 9)
        vectors = []
        for _ in range(rng.randint(1, dim + 3)):
            if rng.random() < 0.5:
                c = _random_scalar(rng)
                vectors.append({} if c.is_zero() else {rng.randrange(dim): c})
            else:
                vectors.append(_random_vector(
                    rng, dim, rng.sample(range(dim), rng.randint(2, dim))))
        want = _sweep_rows(vectors)
        for track in (False, True):
            span = IncrementalSpan(FIELD, track=track)
            for v in vectors:
                span.add(v)
            assert span.rows == want
        unit_rows += sum(len(r) == 1 for r in want.values())
        dense_rows += sum(len(r) > 1 for r in want.values())
        assert nullspace(FIELD, vectors, dim) == _rref_nullspace(vectors, dim)
        coeffs = [_random_scalar(rng) for _ in vectors]
        target = {}
        for c, v in zip(coeffs, vectors):
            for i, x in v.items():
                target[i] = target.get(i, FIELD.zero) + c * x
        target = {i: x for i, x in target.items() if not x.is_zero()}
        coords = span.coordinates(target)
        rebuilt = {}
        for pos, c in coords.items():
            for i, x in vectors[pos].items():
                rebuilt[i] = rebuilt.get(i, FIELD.zero) + c * x
        assert {i: x for i, x in rebuilt.items() if not x.is_zero()} == target
    assert unit_rows > 30 and dense_rows > 30


def test_matrix_arithmetic_round_trip():
    one = FIELD.one
    m = Matrix.zeros(FIELD, 2, 2)
    ident = Matrix.identity(FIELD, 2)
    assert (m + ident) == ident
    assert (ident * 3 - ident * 2) == ident
    two = ident * 2
    assert (two ** 3).scalar_of_identity() == FIELD.from_rational(8)
    assert ident.scalar_of_identity() == one
    assert (ident * FIELD.zeta(1)).scalar_of_identity() == FIELD.zeta(1)
    assert m.scalar_of_identity() == FIELD.zero  # zero matrix is 0 * identity
    assert Matrix(FIELD, 2, columns={0: {0: one}, 1: {1: one}}) == ident
    offdiag = Matrix(FIELD, 2, columns={1: {0: one}})
    assert offdiag.scalar_of_identity() is None
    skew = Matrix(FIELD, 2, columns={0: {0: one}, 1: {1: -one}})
    assert skew.is_diagonal() and skew.scalar_of_identity() is None


def test_matrix_entries_and_products():
    one = FIELD.one
    swap = Matrix(FIELD, 2, columns={0: {1: one}, 1: {0: one}})
    assert swap[0, 1] == one and swap[1, 0] == one
    assert swap[0, 0].is_zero()
    assert not swap.is_diagonal()
    assert (swap * swap) == Matrix.identity(FIELD, 2)
    with pytest.raises(IndexError):
        swap[2, 0]
    with pytest.raises(ValueError):
        swap * Matrix.identity(FIELD, 3)


def test_matrix_stores_no_zeros_and_keeps_its_shape():
    one = FIELD.one
    m = Matrix(FIELD, 3, columns={0: {0: one, 2: FIELD.zero}, 1: {}})
    assert dict(m) == {0: {0: one}}
    m.put(1, 2, FIELD.zeta(1))
    m.put(0, 0, FIELD.zero)
    assert dict(m) == {2: {1: FIELD.zeta(1)}}
    assert (m - m).is_zero() and not (m - m)
    # zero matrices of different shapes differ
    assert Matrix.zeros(FIELD, 2) != Matrix.zeros(FIELD, 3)
    assert Matrix.zeros(FIELD, 2, 3).shape == (2, 3)
    # products and sums drop cancelled entries
    nil = Matrix(FIELD, 2, columns={1: {0: one}})
    assert (nil * nil) == Matrix.zeros(FIELD, 2) and not (nil * nil)
    assert not (nil + (-nil))


def test_matrix_scaled_sums_accumulate():
    one = FIELD.one
    z = FIELD.zeta(1)
    a = Matrix(FIELD, 2, columns={0: {0: one}, 1: {0: z}})
    acc = Matrix.zeros(FIELD, 2) + a * z
    assert acc == a * z and acc[0, 1] == z * z
    acc = acc + a * (-z)
    assert acc.is_zero() and dict(acc) == {}
    acc = acc + a * FIELD.zero
    assert acc.is_zero() and dict(acc) == {}
    # the same sums in place, one scale per column
    acc.add_column_scaled(a, dict.fromkeys(a, z))
    assert acc == a * z
    acc.add_column_scaled(a, {0: -z, 1: -z})
    assert acc.is_zero() and dict(acc) == {}
    acc.add_column_scaled(a, {1: one})
    assert acc == Matrix(FIELD, 2, columns={1: {0: z}})
    with pytest.raises(ValueError):
        acc + Matrix.identity(FIELD, 3)
    with pytest.raises(ValueError):
        acc.add_column_scaled(Matrix.identity(FIELD, 3), {0: one})


def test_matrix_refuses_a_scalar_from_another_field():
    # checked before the zero-scalar and empty-matrix shortcuts
    other = CycloField(40)
    m = Matrix(FIELD, 2, columns={1: {0: FIELD.one}})
    for matrix in (m, Matrix.zeros(FIELD, 2)):
        for scalar in (other.zero, other.one, other.zeta(1)):
            with pytest.raises(ValueError):
                matrix * scalar
            with pytest.raises(ValueError):
                scalar * matrix
    assert (m * FIELD.zero).is_zero() and (FIELD.zero * m).is_zero()
    assert m * Fraction(1, 2) * 2 == m


def test_matrix_refuses_a_matrix_from_another_field():
    # sums, differences, products, scaled-column adds and comparisons all
    # check the field first, also where no two entries meet or an operand
    # is empty
    other = CycloField(40)
    a = Matrix(FIELD, 2, columns={0: {0: FIELD.one}})
    b = Matrix(other, 2, columns={1: {1: other.zeta(1)}})
    for x, y in ((a, b), (Matrix.zeros(FIELD, 2), b),
                 (Matrix.zeros(FIELD, 2), Matrix.zeros(other, 2))):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: y * x, lambda: x == y, lambda: x != y,
                   lambda: x.add_column_scaled(y, {1: FIELD.one})):
            with pytest.raises(ValueError, match="cannot combine"):
                op()
    assert a + Matrix.zeros(FIELD, 2) == a and a * a == a


def test_matrix_reads_a_column_by_its_key():
    # a Matrix is the dict column -> {row: value}: a pair reads an entry,
    # any other key a stored column, as for any dict
    one = FIELD.one
    m = Matrix(FIELD, 2, columns={1: {0: one}})
    assert m[1] == {0: one}
    assert {col: m[col] for col in m} == {1: {0: one}}
    assert m[0, 1] == one and m[1, 1] == FIELD.zero
    with pytest.raises(KeyError):
        m[0]
    with pytest.raises(IndexError):
        m[2, 0]
