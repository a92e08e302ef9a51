"""Tests for the algebra core: normal ordering, defining relations, closed
forms, and the Hopf operations.

The normal-ordering engine (rewrite tables) is validated three independent
ways: the defining relations themselves, associativity on random triples,
and agreement with the explicit q-binomial commutator formula, which is
derived without the engine.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import qpair.algebra as algebra_module
import qpair.modules as modules_module
from qpair.algebra import (GENERATOR_MONOMIALS, Algebra, AlgebraElement,
                           PBWMonomial, TensorElement, casimir)
from qpair.cli import Session, dump_payload, element_from_json
from qpair.cyclo import CycloField, Params
from qpair.functionals import LinearFunctional
from qpair.ideals import BlockSystem
from qpair.modules import all_simple_specs, verify_simple_family
from qpair.report import RunConfig

A23 = Algebra.for_pair(2, 3)


def test_basis_enumeration_counts():
    assert sum(1 for _ in A23.basis_monomials()) == 432
    assert A23.dimension == 432
    A25 = Algebra.for_pair(2, 5)
    assert sum(1 for _ in A25.basis_monomials()) == 2000
    # flat index is a bijection onto range(dim)
    idx = [A23.monomial_index(m) for m in A23.basis_monomials()]
    assert sorted(idx) == list(range(432))


def test_monomial_validation():
    A23.monomial(1, 2, 1, 2, 100)  # ell wraps mod 12
    assert A23.monomial(0, 0, 0, 0, 100).ell == 100 % 12
    with pytest.raises(ValueError):
        A23.monomial(2, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        A23.monomial(0, 3, 0, 0, 0)
    with pytest.raises(ValueError):
        A23.monomial(0, 0, -1, 0, 0)
    with pytest.raises(ValueError):
        A23.generator("x1")


def test_elements_are_normalized_sparse():
    z = A23.element({A23.monomial(0, 0, 0, 0, 0): 0})
    assert z.is_zero() and len(z) == 0
    x = A23.generator("e1")
    assert (x - x).is_zero()
    assert x * A23.one() == x and A23.one() * x == x


def test_element_rejects_a_coefficient_from_another_field():
    # zeta_40 lives in the (2,5) field; (2,3) works over Q(zeta_24)
    foreign = Algebra.for_pair(2, 5).params.zeta(1)
    unit = (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        A23.element({unit: foreign})
    with pytest.raises(ValueError):
        A23.monomial_element(A23.monomial(1, 0, 0, 0, 3), foreign)
    # scalar products refuse the same coefficient
    with pytest.raises(ValueError):
        A23.one() * foreign
    with pytest.raises(ValueError):
        A23.coproduct(A23.one()) * foreign
    # ... before any zero scalar or empty operand could skip the arithmetic
    F40 = foreign.field
    x = A23.e(1)
    for scalar in (F40.zero, F40.one, foreign):
        for operand in (x, A23.zero()):
            with pytest.raises(ValueError):
                operand * scalar
            with pytest.raises(ValueError):
                scalar * operand
            with pytest.raises(ValueError):
                operand / scalar
        for tensor in (A23.coproduct(x), TensorElement(A23, {})):
            with pytest.raises(ValueError):
                tensor * scalar
            with pytest.raises(ValueError):
                scalar * tensor
    own = A23.params.zeta(1)
    assert A23.element({unit: own}) == A23.one() * own
    assert (x * A23.params.zero).is_zero() and (A23.zero() / own).is_zero()
    assert (A23.coproduct(x) * A23.params.zero).is_zero()


def test_rational_entry_points_refuse_inexact_scalars():
    # Fraction(0.1) is 3602879701896397/36028797018963968: a float, a root,
    # a string or a Decimal would enter the field as a binary rational
    P = A23.params
    e1 = PBWMonomial(1, 0, 0, 0, 0)
    func = LinearFunctional(A23, {0: P.one})
    for bad in (0.1, 2 ** 0.5, "1/3", Decimal("0.25")):
        for read in (lambda: A23.element({e1: bad}),
                     lambda: A23.monomial_element(e1, bad),
                     lambda: P.rational(bad),
                     lambda: func * bad):
            with pytest.raises(TypeError, match=type(bad).__name__):
                read()
        with pytest.raises(TypeError):
            A23.e(1) * bad
    # ints, bools (as ints) and Fractions stay exact
    assert P.rational(True) == P.one and P.rational(Fraction(1, 3)) * 3 == 1
    assert A23.element({e1: Fraction(1, 2)}) * 2 == A23.e(1)
    assert A23.monomial_element(e1, 2) == A23.e(1) * 2
    assert (func * 3).values == {0: P.rational(3)}


def test_elements_of_different_pairs_do_not_add():
    other = Algebra.for_pair(2, 5)
    with pytest.raises(ValueError):
        A23.e(1) + other.f(1)
    with pytest.raises(ValueError):
        A23.e(1) - other.f(1)
    # for_pair builds a fresh Algebra each call; the same pair still adds
    twin = Algebra.for_pair(2, 3)
    assert A23.e(1) + twin.f(1) == A23.e(1) + A23.f(1)
    assert (A23.e(1) - twin.e(1)).is_zero()


def test_generator_examples():
    K, Kinv = A23.generator("K"), A23.generator("Kinv")
    assert K * Kinv == A23.one()
    assert Kinv * K == A23.one()
    # e1^(p1-1) * e1 = 0
    e1 = A23.e(1)
    assert (e1.power(A23.p1 - 1) * e1).is_zero()
    f2 = A23.f(2)
    assert (f2.power(A23.p2 - 1) * f2).is_zero()


def test_generator_refuses_an_unknown_name():
    # the seven accepted names live in `generator` alone; the five
    # generators every check iterates are `realization.GENERATOR_NAMES`
    with pytest.raises(ValueError, match=r"unknown generator 'E1'; expected "
                       r"one of \('e1', 'e2', 'f1', 'f2', 'K', 'Kinv', "
                       r"'one'\)"):
        A23.generator("E1")
    assert not hasattr(algebra_module, "GENERATOR_NAMES")


def test_defining_relations_all_pass():
    for pair in [(2, 3), (2, 5), (3, 4)]:
        checks = Algebra.for_pair(*pair).verify_defining_relations()
        failed = [c.check_id for c in checks if not c.passed]
        assert failed == []


def test_triple_product_commutator():
    # [e1, f1] equals the displayed weight line
    P = A23.params
    lhs = A23.e(1) * A23.f(1) - A23.f(1) * A23.e(1)
    denom = P.qi_pow(1, P.p2) - P.qi_pow(1, -P.p2)
    rhs = (A23.k_power(P.p2) - A23.k_power(-P.p2)) * denom.inverse()
    assert lhs == rhs


def test_associativity_generators_and_random():
    gens = [A23.generator(n) for n in ("e1", "e2", "f1", "f2", "K", "Kinv")]
    for a in gens:
        for b in gens:
            for c in gens:
                assert (a * b) * c == a * (b * c)
    rng = random.Random(424242)
    basis = list(A23.basis_monomials())
    for _ in range(250):
        u, v, w = (A23.monomial_element(basis[rng.randrange(len(basis))])
                   for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_random_element_products_distribute():
    rng = random.Random(17)
    basis = list(A23.basis_monomials())

    def rand_elt():
        out = A23.zero()
        for _ in range(4):
            mono = basis[rng.randrange(len(basis))]
            out = out + A23.monomial_element(mono, rng.randint(-3, 3))
        return out

    for _ in range(25):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def _termwise_product(x, y):
    """Reference product in the PBW basis: sum of cu * cv *
    product_monomials(u, v)."""
    A = x.algebra
    out = {}
    for mu, cu in x.pbw_terms().items():
        for mv, cv in y.pbw_terms().items():
            for mono, w in A.product_monomials(mu, mv).items():
                add = cu * cv * w
                out[mono] = add if mono not in out else out[mono] + add
    return A.element(out)


def _multiword_element(A, rng, words, density):
    """Random element over a few words, each with a dense K-polynomial."""
    return A.element(_multiword_terms(A, rng, words, density))


def _multiword_terms(A, rng, words, density):
    """PBW terms of `_multiword_element`, zeros included."""
    P = A.params
    terms = {}
    for _ in range(words):
        word = (rng.randrange(A.p1), rng.randrange(A.p2),
                rng.randrange(A.p1), rng.randrange(A.p2))
        for ell in rng.sample(range(A.korder), density):
            c = P.zeta(rng.randrange(P.N)) * rng.randint(-3, 3)
            if rng.random() < 0.3:
                c = c / rng.randint(2, 5) + P.zeta(rng.randrange(P.N))
            terms[A.monomial(*word, ell)] = c
    return terms


def _named_sample(B, rng, count):
    """Random named elements of random ideals of B's algebra."""
    catalog = B.primitive_idempotent_catalog()
    out = []
    for _ in range(count):
        _, alpha, r1, r2, s1, s2 = rng.choice(catalog)
        out.append(rng.choice(B.ideal_basis(alpha, r1, r2, s1, s2)).value)
    return out


def test_word_by_word_products_match_termwise_reference():
    rng = random.Random(2718)
    for _ in range(30):
        x = _multiword_element(A23, rng, rng.randint(1, 4), rng.randint(1, 12))
        y = _multiword_element(A23, rng, rng.randint(1, 4), rng.randint(1, 12))
        assert x * y == _termwise_product(x, y)
    A34 = Algebra.for_pair(3, 4)
    for _ in range(3):
        x = _multiword_element(A34, rng, 3, 16)
        y = _multiword_element(A34, rng, 3, 16)
        assert x * y == _termwise_product(x, y)
    # named x named and generator x named: the block layer's products,
    # mostly zero, against the PBW reference
    for A, count in ((A23, 12), (A34, 3)):
        named = _named_sample(BlockSystem(A), rng, 2 * count)
        for x, y in zip(named[::2], named[1::2]):
            assert x * y == _termwise_product(x, y)
            assert y * x == _termwise_product(y, x)
        gens = [A.generator(g) for g in ("e1", "e2", "f1", "f2", "K", "Kinv")]
        for y in named[:count]:
            for g in gens:
                assert g * y == _termwise_product(g, y)
                assert y * g == _termwise_product(y, g)


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_lopsided_products_match_the_pbw_product(pair):
    # factors of very different sizes in both orders, generators on either
    # side, against the product of their PBW terms
    A = A23 if pair == (2, 3) else Algebra.for_pair(*pair)
    P = A.params
    rng = random.Random(11 * pair[0] + pair[1])
    gens = [A.generator(g) for g in ("e1", "e2", "f1", "f2", "K", "Kinv")]
    words = sorted({m[:4] for m in A.basis_monomials()})
    small = _named_sample(BlockSystem(A), rng, 6) + [
        AlgebraElement(A, {w + (rng.randrange(A.korder),):
                           P.zeta(rng.randrange(P.N))})
        for w in rng.sample(words, 4)]
    large = [_multiword_element(A, rng, 6, A.korder) for _ in range(2)]
    dense = rng.sample(words, 3)
    large.append(A.element({m: rng.randint(1, 3) for m in A.basis_monomials()
                            if m[:4] in dense}))
    large.append(A.e(1) * A.f(2) + A.one() * 3)

    def reference(x, y):
        return A.element(A.pbw_product(x.pbw_terms(), y.pbw_terms()))

    for x in small:
        for y in large + gens:
            assert x * y == reference(x, y)
            assert y * x == reference(y, x)
    for g in gens:
        for y in large:
            assert g * y == reference(g, y)
            assert y * g == reference(y, g)


def _direct_row(A, triples, b):
    """{word: sum_s coef zeta^(2 b s)} over the triples, zeros dropped:
    the word product evaluated at one index b, with no period."""
    sums = {}
    for keys, _, s, coef in triples:
        add = coef * A.params.zeta(2 * b * s)
        word = keys[0][:4]
        sums[word] = add if word not in sums else sums[word] + add
    return {w: v for w, v in sums.items() if not v.is_zero()}


def _built_rows(A):
    """(word pair, triples, P, r, row) for every row the memo holds."""
    return [(pair, triples, period, r, row)
            for pair, (triples, period, rows) in A._word_products.items()
            for r, row in enumerate(rows) if row is not None]


def _assert_rows_are_the_direct_sums(A):
    """Each stored row r equals the word product evaluated directly at
    every b = r mod P, word by word, and P is korder over the gcd of
    korder and every shift of the pair."""
    for pair, (triples, period, rows) in A._word_products.items():
        assert len(rows) == period, pair
        assert period == A.korder // math.gcd(
            A.korder, *(t[2] for t in triples)), pair
    for pair, triples, period, r, row in _built_rows(A):
        got = {keys[0][:4]: value for keys, value in row}
        for b in range(r, A.korder, period):
            assert got == _direct_row(A, triples, b), (pair, r, b)


@pytest.mark.parametrize("pair", [(2, 5), (3, 4)])
def test_evaluated_rows_match_the_termwise_reference(pair):
    # products read off the memo's evaluated rows, both orders and
    # generators on either side, against the PBW termwise reference; the
    # rows they read include periods P > 1 and output words that sum two
    # or more shifts, and every stored row is the direct sum at each b of
    # its residue class
    A = Algebra.for_pair(*pair)
    rng = random.Random(sum(pair) * 101)
    named = _named_sample(BlockSystem(A), rng, 4)
    mixed = [_multiword_element(A, rng, 2, 6) for _ in range(2)]
    gens = [A.generator(g) for g in ("e1", "e2", "f1", "f2", "K", "Kinv")]
    for x in named + mixed:
        for g in gens:
            assert g * x == _termwise_product(g, x)
            assert x * g == _termwise_product(x, g)
    for x, y in zip(named, named[1:] + mixed):
        assert x * y == _termwise_product(x, y)
        assert y * x == _termwise_product(y, x)
    rows = _built_rows(A)
    assert any(period > 1 for _, _, period, _, _ in rows)
    many = [(pair, r) for pair, triples, period, r, row in rows
            if len({keys for keys, _, _, _ in triples}) < len(triples)]
    assert many, "no row summed two shifts of one word"
    _assert_rows_are_the_direct_sums(A)


def test_row_values_that_cancel_are_dropped():
    # f1 e1 = e1 f1 - W, W the copy-1 weight line on the unit word, so the
    # row of (f1, e1) holds the unit word at V(b) = -W(lambda_b), summed
    # over W's two shifts, and drops it at every b where W(lambda_b) = 0
    A = Algebra.for_pair(2, 3)
    f1, e1 = A.f(1), A.e(1)
    f1e1 = f1 * e1
    triples, period, rows = A._word_products[((0, 0, 1, 0), (1, 0, 0, 0))]
    unit_shifts = [s for keys, _, s, _ in triples if keys[0][:4] == (0,) * 4]
    assert len(unit_shifts) == 2 and period > 1
    unit_rows = [r for r, row in enumerate(rows)
                 if any(keys[0][:4] == (0,) * 4 for keys, _ in row)]
    assert 0 < len(unit_rows) < period
    assert {key[4] for key in f1e1.terms if key[:4] == (0,) * 4} == {
        b for b in range(A.korder) if b % period in unit_rows}


def test_products_prune_the_keys_that_cancel():
    # (f1 + W)(e1 + 1) = e1 f1 + f1 + W e1: at each unit-word key the term
    # W * 1 meets the -W of f1 e1 and the sum is zero, so the key is
    # dropped, not kept with a zero value
    A = Algebra.for_pair(2, 3)
    f1, e1, one = A.f(1), A.e(1), A.one()
    W = e1 * f1 - f1 * e1
    assert any(key[:4] == (0,) * 4 for key in W.terms)
    x, y = f1 + W, e1 + one
    got = x * y
    assert not any(key[:4] == (0,) * 4 for key in got.terms)
    assert not any(c.is_zero() for c in got.terms.values())
    assert got == e1 * f1 + f1 + W * e1 == _termwise_product(x, y)


def test_word_product_memo_holds_at_most_one_row_per_residue():
    # after the ideals suite at (2,3): every entry has P dividing korder
    # and one slot per residue mod P, every stored row was built once and
    # counted once, and the stored rows are the direct sums
    session = Session(RunConfig(p1=2, p2=3, suites=("ideals",)))
    A = session.algebra
    assert all(c.passed for c in session.suite_ideals())
    for triples, period, rows in A._word_products.values():
        assert A.korder % period == 0 and len(rows) == period
    built = _built_rows(A)
    assert len(built) == A.word_product_rows > 0
    assert A.element_products > 0
    _assert_rows_are_the_direct_sums(A)


def test_products_with_a_warm_memo_still_refuse_mixed_operands():
    # (3,2) shares the field Q(zeta_24) with (2,3): only the pair check
    # tells their elements apart, and it runs before any memo row is read
    A = Algebra.for_pair(2, 3)
    other = Algebra.for_pair(3, 2)
    x = A.e(1) * A.f(1)
    assert A.word_product_rows > 0
    with pytest.raises(ValueError):
        A.e(1) * other.f(1)
    with pytest.raises(ValueError):
        other.f(1) * A.e(1)
    foreign = Algebra.for_pair(2, 5).params.zeta(1)
    for operand in (x, A.zero()):
        with pytest.raises(ValueError):
            operand * foreign
        with pytest.raises(ValueError):
            foreign * operand


def test_power_starts_from_the_element():
    A = Algebra.for_pair(2, 3)
    x = A.e(1) * A.f(1) + A.generator("K")
    assert x.power(0) == A.one()
    before = A.element_products
    assert x.power(1) == x
    assert A.element_products == before
    assert x.power(3) == x * x * x
    assert A.element_products == before + 4
    with pytest.raises(ValueError):
        x.power(-1)


def test_monomial_element_is_the_one_term_element():
    # the closed form sum_j c zeta^(2 j ell) w 1_j against the transform
    P = A23.params
    coeffs = (1, -2, Fraction(3, 4), P.zeta(1), 0)
    for m in A23.basis_monomials():
        for c in coeffs:
            x = A23.monomial_element(m, c)
            want = A23.element({m: c})
            assert list(x.terms.items()) == list(want.terms.items())
    assert A23.monomial_element(A23.monomial(1, 0, 0, 0, 5), 0).terms == {}
    # ell wraps as in `element`, other exponents are range checked
    assert (A23.monomial_element(PBWMonomial(0, 1, 1, 0, 5 + A23.korder), -2)
            == A23.element({PBWMonomial(0, 1, 1, 0, 5): -2}))
    with pytest.raises(ValueError):
        A23.monomial_element(PBWMonomial(2, 0, 0, 0, 0))
    A32 = Algebra.for_pair(3, 2)
    for m in A32.basis_monomials():
        assert A32.monomial_element(m, 5) == A32.element({m: 5})


def _eigenvalue_sum(A, poly, j):
    """P(lambda_j) = sum_l c_l zeta^(2 j l), by plain field arithmetic."""
    acc = A.params.zero
    for ell, c in poly.items():
        acc = acc + c * A.params.zeta(2 * j * ell)
    return acc


def test_projector_basis_round_trip():
    # PBW terms -> stored projector terms -> PBW terms is exact, and each
    # stored coefficient is the word's K-polynomial at lambda_j
    rng = random.Random(3141)
    A34 = Algebra.for_pair(3, 4)
    for A, count in ((A23, 20), (A34, 4)):
        for _ in range(count):
            terms = _multiword_terms(A, rng, rng.randint(1, 4),
                                     rng.randint(1, A.korder))
            terms = {m: c for m, c in terms.items() if not c.is_zero()}
            x = A.element(terms)
            assert x.pbw_terms() == terms
            polys = {}
            for m, c in terms.items():
                polys.setdefault(m[:4], {})[m.ell] = c
            want = {word + (j,): _eigenvalue_sum(A, poly, j)
                    for word, poly in polys.items() for j in range(A.korder)}
            assert x.terms == {k: c for k, c in want.items() if not c.is_zero()}
    one = A23.params.one
    for m in A23.basis_monomials():
        x = A23.monomial_element(m)
        assert len(x.terms) == A23.korder     # dense in projector form
        assert x.pbw_terms() == {m: one}
    B = BlockSystem(A23)
    for entry in B.primitive_idempotent_catalog():
        e = B.primitive_idempotent(*entry)
        assert A23.element(e.pbw_terms()) == e
    assert A23.zero().pbw_terms() == {}


def _reference_fourier(A, polys, sign, scale):
    """The PBW <-> projector transform folding every word at every t:
    (word, t, sum_s poly[s] zeta^(2 sign s t) / scale), zeros skipped."""
    N, fold = A.params.N, A.field.fold
    for word, poly in polys.items():
        den = math.lcm(*(c.den for c in poly.values()))
        parts = [(2 * sign * s,
                  [(i, a * (den // c.den)) for i, a in enumerate(c.num) if a])
                 for s, c in poly.items() if not c.is_zero()]
        if not parts:
            continue
        for t in range(A.korder):
            vec = [0] * N
            for step, nonzero in parts:
                for i, a in nonzero:
                    vec[(i + step * t) % N] += a
            value = fold(vec, den * scale)
            if not value.is_zero():
                yield word, t, value


def _assert_fourier_matches_reference(A, terms):
    """`A.element(terms)` and its `pbw_terms` against the reference, in
    value and in term order."""
    polys = {}
    for m, c in terms.items():
        polys.setdefault(m[:4], {})[m[4]] = c
    x = A.element(terms)
    assert list(x.terms.items()) == [
        (word + (j,), c) for word, j, c in _reference_fourier(A, polys, 1, 1)]
    back = {}
    for (m1, m2, n1, n2, j), c in x.terms.items():
        back.setdefault((m1, m2, n1, n2), {})[j] = c
    assert list(x.pbw_terms().items()) == [
        (PBWMonomial(*word, ell), c)
        for word, ell, c in _reference_fourier(A, back, -1, A.korder)]


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (2, 5)])
def test_fourier_transform_matches_the_fold_every_t_reference(pair):
    # the transform folds each word once per period of its exponents; the
    # reference folds it at every t
    A = A23 if pair == (2, 3) else Algebra.for_pair(*pair)
    B = BlockSystem(A)
    P = A.params
    rng = random.Random(97 * pair[0] + pair[1])
    words = sorted({m[:4] for m in A.basis_monomials()})
    # K-free words, each alone and all together
    for w in words:
        _assert_fourier_matches_reference(A, {PBWMonomial(*w, 0): P.one})
    _assert_fourier_matches_reference(
        A, {PBWMonomial(*w, 0): P.zeta(rng.randrange(P.N)) for w in words})
    # equal integer sums over different denominators are different values
    _assert_fourier_matches_reference(
        A, {PBWMonomial(*w, 0): P.rational(Fraction(1, i + 1))
            for i, w in enumerate(words[:4])})
    # w K^ell at every ell
    for w in rng.sample(words, 6):
        for ell in range(A.korder):
            _assert_fourier_matches_reference(A, {PBWMonomial(*w, ell): P.one})
    # every averager's PBW sum
    for alpha in (1, -1):
        for r1 in range(1, A.p1 + 1):
            for r2 in range(1, A.p2 + 1):
                for s1 in range(1, r1 + 1):
                    for s2 in range(1, r2 + 1):
                        ratio = B.averager_ratio(alpha, r1, r2, s1, s2)
                        _assert_fourier_matches_reference(
                            A, {PBWMonomial(0, 0, 0, 0, ell): ratio ** ell
                                for ell in range(A.korder)})
    # seeded dense words
    for _ in range(6):
        terms = _multiword_terms(A, rng, rng.randint(1, 4),
                                 rng.randint(1, A.korder))
        _assert_fourier_matches_reference(
            A, {m: c for m, c in terms.items() if not c.is_zero()})
    if pair == (2, 5):
        return
    # every primitive idempotent: dense in PBW, sparse in projectors, so
    # most of its sums are zero vectors or vanish only after the fold
    for label in B.block_labels():
        for entry in B.primitive_idempotent_catalog(label):
            _assert_fourier_matches_reference(
                A, B.primitive_idempotent(*entry).pbw_terms())


def test_parsing_the_idempotents_dump_folds_each_distinct_sum_once(
        monkeypatch):
    # the 36 elements of the (2,3) idempotents dump take 1,248 sums over
    # the periods of their words; counted per element, 145 of them are
    # distinct and not zero vectors
    session = Session(RunConfig(p1=2, p2=3, suites=("all",)))
    items = dump_payload(session, "idempotents")["idempotents"]
    calls = 0
    fold = CycloField.fold

    def counted(self, vec, den=1):
        nonlocal calls
        calls += 1
        return fold(self, vec, den)

    monkeypatch.setattr(CycloField, "fold", counted)
    parsed = [element_from_json(session.algebra, item["element"])
              for item in items]
    assert calls <= 145
    monkeypatch.undo()
    system = session.system
    assert parsed == [system.primitive_idempotent(
        item["kind"], item["alpha"], item["r1"], item["r2"], item["s1"],
        item["s2"]) for item in items]


def test_word_by_word_product_edge_cases():
    P = A23.params
    rng = random.Random(5)
    x = _multiword_element(A23, rng, 3, 8)
    zero = A23.zero()
    assert (x * zero).is_zero() and (zero * x).is_zero()
    assert (zero * zero).is_zero()
    # scalars of every accepted kind
    z = P.zeta(5)
    assert x * 3 == 3 * x == _termwise_product(x, A23.one() * 3)
    assert x * z == _termwise_product(x, A23.one() * z)
    assert (x / 2) * 2 == x
    # (1 - c K) * sum_l c^l K^l = 0 once the word's weight is folded in:
    # e1 (1 - K) f1 = e1 f1 (1 - zeta^w K), w the weight of f1
    w = A23.conjugation_weight_exponent(A23.monomial(0, 0, 1, 0, 0))
    left = A23.e(1) * (A23.one() - A23.generator("K"))
    right = A23.element({A23.monomial(0, 0, 1, 0, ell): P.zeta(w * ell)
                         for ell in range(A23.korder)})
    assert not left.is_zero() and not right.is_zero()
    assert (left * right).is_zero()
    assert _termwise_product(left, right).is_zero()
    # the top power of e1 dies by the range checks alone
    assert (A23.e(1).power(A23.p1 - 1) * (A23.e(1) * A23.k_power(3))).is_zero()


def test_elements_of_different_pairs_do_not_multiply():
    # (2,3) and (3,2) share the field Q(zeta_24), so only the pair check
    # can catch the mix
    other = Algebra.for_pair(3, 2)
    assert other.params.field.order == A23.params.field.order
    with pytest.raises(ValueError):
        A23.e(1) * other.e(1)
    delta = A23.coproduct(A23.e(1))
    foreign = other.coproduct(other.e(1))
    with pytest.raises(ValueError):
        delta * foreign
    with pytest.raises(ValueError):
        delta + foreign
    # equality refuses the mix too, on elements and on tensors
    with pytest.raises(ValueError):
        A23.e(1) == other.e(1)
    with pytest.raises(ValueError):
        A23.one() != other.one()
    with pytest.raises(ValueError):
        A23.coproduct(A23.one()) == other.coproduct(other.one())
    with pytest.raises(ValueError):
        delta == foreign
    twin = Algebra.for_pair(2, 3)
    assert A23.e(1) == twin.e(1) and A23.e(1) != twin.f(1)
    assert A23.e(1) * twin.f(1) == A23.e(1) * A23.f(1)
    assert twin.coproduct(twin.e(1)) == delta
    assert delta * twin.coproduct(twin.f(1)) == delta * A23.coproduct(A23.f(1))


# ---------------------------------------------------------------------------
# Commutator closed form (independent route)
# ---------------------------------------------------------------------------

def test_commutator_closed_form_single_step_display():
    # m = 1 reduces to [e, f^n] = [n] f^(n-1) W(-(n-1)), the displayed rule
    for pair in [(2, 3), (3, 4)]:
        A = Algebra.for_pair(*pair)
        P = A.params
        for i in (1, 2):
            p, pj = P.p(i), P.other(i)
            denom = (P.qi_pow(i, pj) - P.qi_pow(i, -pj)).inverse()
            for n in range(1, p):
                w = (A.k_power(pj) * P.qi_pow(i, -pj * (n - 1))
                     - A.k_power(-pj) * P.qi_pow(i, pj * (n - 1))) * denom
                expected = A.f(i).power(n - 1) * w * P.bracket(i, n)
                assert A.commutator_closed_form(i, 1, n) == expected


def test_commutator_closed_form_equals_brute_force():
    for pair in [(2, 3), (2, 5), (3, 4)]:
        A = Algebra.for_pair(*pair)
        for i in (1, 2):
            p = A.params.p(i)
            for m in range(1, p):
                for n in range(1, p):
                    e, f = A.e(i).power(m), A.f(i).power(n)
                    assert A.commutator_closed_form(i, m, n) == e * f - f * e


def test_commutator_closed_form_range_check():
    with pytest.raises(ValueError):
        A23.commutator_closed_form(1, 0, 1)
    with pytest.raises(ValueError):
        A23.commutator_closed_form(1, 2, 1)  # p1 = 2 allows only m = n = 1
    with pytest.raises(ValueError):
        A23.commutator_closed_form(2, 1, 3)


def test_cross_copy_generators_commute():
    e1, e2, f1, f2 = A23.e(1), A23.e(2), A23.f(1), A23.f(2)
    assert (e1 * f2 - f2 * e1).is_zero()
    assert (e2 * f1 - f1 * e2).is_zero()
    assert (e1.power(1) * e2.power(2)) == (e2.power(2) * e1.power(1))


# ---------------------------------------------------------------------------
# Hopf operations
# ---------------------------------------------------------------------------

def test_counit_values():
    P = A23.params
    assert A23.counit(A23.generator("K")) == P.one
    assert A23.counit(A23.k_power(7)) == P.one
    assert A23.counit(A23.e(1)).is_zero()
    assert A23.counit(A23.f(2)).is_zero()
    # coefficient extraction only when every e/f exponent vanishes
    x = A23.element({
        A23.monomial(0, 0, 0, 0, 3): 5,
        A23.monomial(1, 0, 0, 0, 0): 7,
    })
    assert A23.counit(x) == 5


def test_antipode_generator_images():
    A = A23
    p1, p2 = A.p1, A.p2
    assert A.antipode(A.e(1)) == A.k_power(-p2) * A.e(1) * (-1)
    assert A.antipode(A.e(2)) == A.e(2) * A.k_power(-p1) * (-1)
    assert A.antipode(A.f(1)) == A.f(1) * A.k_power(p2) * (-1)
    assert A.antipode(A.f(2)) == A.k_power(p1) * A.f(2) * (-1)
    assert A.antipode(A.generator("K")) == A.generator("Kinv")


def test_antipode_is_antimorphism_on_random_pairs():
    rng = random.Random(31)
    basis = list(A23.basis_monomials())
    for _ in range(60):
        u = A23.monomial_element(basis[rng.randrange(len(basis))])
        v = A23.monomial_element(basis[rng.randrange(len(basis))])
        assert A23.antipode(u * v) == A23.antipode(v) * A23.antipode(u)


def test_antipode_square_is_conjugation_exhaustive():
    g = A23.k_power(A23.p1 - A23.p2)
    ginv = A23.k_power(-(A23.p1 - A23.p2))
    assert g * ginv == A23.one()
    assert g.pbw_terms() == {A23.monomial(0, 0, 0, 0, A23.p1 - A23.p2):
                             A23.params.one}
    for mono in A23.basis_monomials():
        x = A23.monomial_element(mono)
        assert A23.antipode(A23.antipode(x)) == g * x * ginv


def test_coproduct_generator_images_and_k_powers():
    A = A23
    one = A.params.one
    e1 = A.monomial(1, 0, 0, 0, 0)
    mono_one = A.monomial(0, 0, 0, 0, 0)
    kp2 = A.monomial(0, 0, 0, 0, A.p2)
    d = A.coproduct(A.e(1))
    assert d.terms == {(e1, mono_one): one, (kp2, e1): one}
    for ell in range(A.korder):
        kl = A.monomial(0, 0, 0, 0, ell)
        assert A.coproduct_monomial(kl).terms == {(kl, kl): one}


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_coproduct_recursion_matches_generator_chain(pair):
    # Delta(e1^m1 e2^m2 f1^n1 f2^n2 K^ell), accumulated right to left from
    # Delta(K^ell) = K^ell (x) K^ell by the generator images, one factor at
    # a time, on every basis monomial; the cache builds only the K-free
    # words by products and relabels the rest
    A = Algebra.for_pair(*pair)
    one = A.params.one
    unit = A.monomial(0, 0, 0, 0, 0)

    def k(t):
        return A.monomial(0, 0, 0, 0, t)

    gens = {
        "e1": TensorElement(A, {(A.monomial(1, 0, 0, 0, 0), unit): one,
                                (k(A.p2), A.monomial(1, 0, 0, 0, 0)): one}),
        "e2": TensorElement(A, {(A.monomial(0, 1, 0, 0, 0), k(A.p1)): one,
                                (unit, A.monomial(0, 1, 0, 0, 0)): one}),
        "f1": TensorElement(A, {(A.monomial(0, 0, 1, 0, 0), k(-A.p2)): one,
                                (unit, A.monomial(0, 0, 1, 0, 0)): one}),
        "f2": TensorElement(A, {(A.monomial(0, 0, 0, 1, 0), unit): one,
                                (k(-A.p1), A.monomial(0, 0, 0, 1, 0)): one}),
    }
    for mono in A.basis_monomials():
        chain = TensorElement(A, {(k(mono.ell), k(mono.ell)): one})
        for name, count in (("f2", mono.n2), ("f1", mono.n1),
                            ("e2", mono.m2), ("e1", mono.m1)):
            for _ in range(count):
                chain = gens[name] * chain
        assert A.coproduct_monomial(mono) == chain, mono


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_antipode_recursion_matches_generator_chain(pair):
    # S(e1^m1 e2^m2 f1^n1 f2^n2 K^ell) = K^-ell S(f2)^n2 S(f1)^n1 S(e2)^m2
    # S(e1)^m1, accumulated from K^-ell by the generator images, one factor
    # at a time, on every basis monomial
    A = Algebra.for_pair(*pair)
    one, minus = A.params.one, -A.params.one

    def k(t):
        return A.monomial(0, 0, 0, 0, t)

    images = {
        "e1": A.pbw_product({k(-A.p2): minus}, {A.monomial(1, 0, 0, 0, 0): one}),
        "e2": A.pbw_product({A.monomial(0, 1, 0, 0, 0): minus}, {k(-A.p1): one}),
        "f1": A.pbw_product({A.monomial(0, 0, 1, 0, 0): minus}, {k(A.p2): one}),
        "f2": A.pbw_product({k(A.p1): minus}, {A.monomial(0, 0, 0, 1, 0): one}),
    }
    for mono in A.basis_monomials():
        chain = {k(-mono.ell): one}
        for name, count in (("f2", mono.n2), ("f1", mono.n1),
                            ("e2", mono.m2), ("e1", mono.m1)):
            for _ in range(count):
                chain = A.pbw_product(chain, images[name])
        assert A.antipode_monomial(mono) == chain, mono


def test_coproduct_is_algebra_map_on_random_pairs():
    rng = random.Random(8)
    basis = list(A23.basis_monomials())
    for _ in range(30):
        u = basis[rng.randrange(len(basis))]
        v = basis[rng.randrange(len(basis))]
        lhs = A23.coproduct(A23.monomial_element(u) * A23.monomial_element(v))
        rhs = A23.coproduct_monomial(u) * A23.coproduct_monomial(v)
        assert lhs == rhs


def test_coproduct_closed_form_corrected_matches_everywhere_sampled():
    rng = random.Random(99)
    basis = list(A23.basis_monomials())
    for _ in range(60):
        mono = basis[rng.randrange(len(basis))]
        assert A23.coproduct_closed_form(mono, "corrected") == A23.coproduct_monomial(mono)


def test_coproduct_closed_form_printed_variant_fails_on_f1():
    # the transcription misprint is visible already on the bare f1 monomial
    f1 = A23.monomial(0, 0, 1, 0, 0)
    truth = A23.coproduct_monomial(f1)
    assert A23.coproduct_closed_form(f1, "corrected") == truth
    assert A23.coproduct_closed_form(f1, "printed") != truth
    with pytest.raises(ValueError):
        A23.coproduct_closed_form(f1, "fixed")


def _hopf_checks(A):
    return {c.check_id: c for c in A.verify_hopf_axioms()}


def test_hopf_axiom_suite_passes():
    checks = A23.verify_hopf_axioms()
    assert [c.check_id for c in checks if not c.passed] == []
    scopes = [c.detail.split(";")[0] for c in checks]
    on_images = "presentation: 17 defining relations on the generator images in "
    assert scopes == ([("unit + 5 generators, extended to all 432 monomials "
                        "by the defining relations")] * 4
                      + [on_images + "A ⊗ A", on_images + "A^op",
                         on_images + "Q(zeta_24)"])
    assert [c.scope for c in checks] == scopes


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_hopf_maps_respect_every_generator_pair_product(pair):
    # reference for the presentation premises of verify_hopf_axioms:
    # Delta(gm) = Delta(g)Delta(m), S(gm) = S(m)S(g) and eps(gm) =
    # eps(g)eps(m) for every generator g and basis monomial m
    A = Algebra.for_pair(*pair)
    one = A.params.one
    for g in GENERATOR_MONOMIALS:
        delta_g = A.coproduct_monomial(g)
        s_g = A.antipode_monomial(g)
        eps_g = A.pbw_counit({g: one})
        for m in A.basis_monomials():
            gm = A.product_monomials(g, m)
            assert A.pbw_coproduct(gm) == delta_g * A.coproduct_monomial(m), (g, m)
            assert (A.pbw_antipode(gm)
                    == A.pbw_product(A.antipode_monomial(m), s_g)), (g, m)
            assert A.pbw_counit(gm) == eps_g * A.pbw_counit({m: one}), (g, m)


PREMISES = ("coproduct is an algebra map", "antipode is an anti-morphism",
            "counit is multiplicative")


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (2, 5)])
def test_relations_suite_and_hopf_premises_read_one_relation_list(
        pair, monkeypatch):
    A = Algebra.for_pair(*pair)
    names = [c.check_id for c in A.verify_defining_relations()]
    assert len(names) == 17
    seen = []
    evaluate = algebra_module.defining_relations

    def spy(params, target):
        out = evaluate(params, target)
        seen.append([name for name, _ in out])
        return out

    monkeypatch.setattr(algebra_module, "defining_relations", spy)
    monkeypatch.setattr(modules_module, "defining_relations", spy)
    checks = _hopf_checks(A)
    # A itself, then the images of Delta, S and eps
    assert seen == [names] * 4
    for check_id in PREMISES:
        assert checks[check_id].scope.startswith(
            "presentation: 17 defining relations"), check_id
    # each simple module, then each module's double-step f2 variant
    seen.clear()
    module_checks = verify_simple_family(A.params)
    specs = all_simple_specs(A.params)
    assert seen == [names] * (len(specs)
                              + sum(1 for s in specs if s.r2 >= 2))
    ids = {c.check_id for c in module_checks}
    for spec in specs:
        assert {f"{spec.label()}: {name}" for name in names} <= ids


def test_presentation_casimir_in_the_algebra_matches_the_element_formula():
    # the central element of copy i written out in A, independently of
    # `casimir`: -a K^-p_j - a^-1 K^p_j - (a - a^-1)^2 e_i f_i, a = q_i^p_j
    P = A23.params
    target = A23.relation_target()
    for i in (1, 2):
        pj = P.other(i)
        a = P.qi_pow(i, pj)
        gap = a - a.inverse()
        ef = A23.monomial(1, 0, 1, 0, 0) if i == 1 else A23.monomial(0, 1, 0, 1, 0)
        want = (A23.k_power(-pj) * (-a)
                + A23.k_power(pj) * (-a.inverse())
                + A23.monomial_element(ef, -(gap * gap)))
        assert casimir(P, i, target) == want, i


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_hopf_axioms_hold_on_every_basis_monomial(pair):
    # reference for the generator reduction of verify_hopf_axioms:
    # coassociativity, counit, antipode and the conjugation form of S^2,
    # each on every basis monomial
    A = Algebra.for_pair(*pair)
    one = A.params.one
    unit = A.monomial(0, 0, 0, 0, 0)
    g = {A.monomial(0, 0, 0, 0, A.p1 - A.p2): one}
    ginv = {A.monomial(0, 0, 0, 0, A.p2 - A.p1): one}
    for mono in A.basis_monomials():
        x = {mono: one}
        delta = A.coproduct_monomial(mono)
        assert delta.associate_left() == delta.associate_right(), mono
        assert delta.apply_counit_left() == x, mono
        assert delta.apply_counit_right() == x, mono
        eps = A.pbw_counit(x)
        target = {} if eps.is_zero() else {unit: eps}
        assert delta.fold_antipode_left() == target, mono
        assert delta.fold_antipode_right() == target, mono
        assert (A.pbw_antipode(A.antipode_monomial(mono))
                == A.pbw_product(A.pbw_product(g, x), ginv)), mono


def test_flipped_generator_antipode_fails_the_antipode_axiom():
    # S(e1) = +K^-p2 e1: the antipode axiom breaks on e1 itself
    A = Algebra.for_pair(2, 3)
    images = A._generator_antipodes()
    images["e1"] = {m: -c for m, c in images["e1"].items()}
    checks = _hopf_checks(A)
    check = checks["antipode axiom"]
    assert not check.passed
    assert "failures: 1, first at e1" in check.detail
    # S is no longer anti-multiplicative, yet still squares to the
    # conjugation on each generator: the S^2 check fails on its premise
    assert not checks["antipode is an anti-morphism"].passed
    check = checks["antipode square is conjugation by K^(p1-p2)"]
    assert not check.passed
    assert "failures: 0;" in check.detail
    assert "premise failed: antipode is an anti-morphism" in check.detail


def test_multiplicative_but_not_coassociative_coproduct_fails():
    # Delta(e1) = (e1 + y) (x) 1 + K^p2 (x) e1 with y = f1 (K^p2 + K^(3 p2)):
    # at p1 = 2, e1 -> e1 + y fixing e2, f1, f2 and K respects every
    # defining relation, so this Delta is still an algebra map, but the
    # extra y (x) 1 breaks coassociativity on e1
    A = Algebra.for_pair(2, 3)
    one = A.params.one
    e1, unit = A.monomial(1, 0, 0, 0, 0), A.monomial(0, 0, 0, 0, 0)
    A._generator_coproducts()["e1"] = TensorElement(A, {
        (e1, unit): one, (A.monomial(0, 0, 0, 0, A.p2), e1): one,
        (A.monomial(0, 0, 1, 0, A.p2), unit): one,
        (A.monomial(0, 0, 1, 0, 3 * A.p2), unit): one})
    checks = _hopf_checks(A)
    assert checks["coproduct is an algebra map"].passed
    check = checks["coassociativity"]
    assert not check.passed
    assert "failures: 1, first at e1" in check.detail
    assert "premise" not in check.detail


def test_failing_pair_check_fails_the_checks_it_extends():
    # Delta(e1) = e1 (x) 1 + 1 (x) e1 is coassociative and counital on
    # every generator, but not multiplicative: its square 2 e1 (x) e1
    # breaks e1^2 = 0, and the reductions that rely on multiplicativity
    # must fail and say why
    A = Algebra.for_pair(2, 3)
    one = A.params.one
    e1, unit = A.monomial(1, 0, 0, 0, 0), A.monomial(0, 0, 0, 0, 0)
    A._generator_coproducts()["e1"] = TensorElement(
        A, {(e1, unit): one, (unit, e1): one})
    checks = _hopf_checks(A)
    check = checks["coproduct is an algebra map"]
    assert not check.passed
    assert "first at e1^2 = 0;" in check.detail + ";"
    for check_id in ("coassociativity", "counit axiom", "antipode axiom"):
        check = checks[check_id]
        assert not check.passed, check_id
        assert ("premise failed: coproduct is an algebra map"
                in check.detail), check_id
    for check_id in ("coassociativity", "counit axiom"):
        assert "failures: 0;" in checks[check_id].detail, check_id


def _relations_on_tensor_images(A, images):
    """The defining relations in report order, as (name, lhs, rhs) in
    A (x) A, on the tensor images of e1, e2, f1, f2 with K -> K (x) K."""
    P = A.params
    minus = -P.one

    def kk(t):
        k = A.monomial(0, 0, 0, 0, t)
        return TensorElement(A, {(k, k): P.one})

    def power(x, n):
        out = kk(0)
        for _ in range(n):
            out = out * x
        return out

    def bracket(x, y):
        return x * y + (y * x) * minus

    unit, zero, K, Kinv = kk(0), TensorElement(A, {}), kk(1), kk(-1)
    rels = [("K*Kinv = 1", K * Kinv, unit), ("Kinv*K = 1", Kinv * K, unit),
            (f"K^{A.korder} = 1", power(K, A.korder), unit)]
    for i in (1, 2):
        e, f, p = images[f"e{i}"], images[f"f{i}"], P.p(i)
        rels += [(f"K e{i} Kinv = q{i}^2 e{i}", K * e * Kinv, e * P.qi_pow(i, 2)),
                 (f"K f{i} Kinv = q{i}^-2 f{i}", K * f * Kinv, f * P.qi_pow(i, -2)),
                 (f"e{i}^{p} = 0", power(e, p), zero),
                 (f"f{i}^{p} = 0", power(f, p), zero)]
    e1, e2, f1, f2 = (images[name] for name in ("e1", "e2", "f1", "f2"))
    rels += [("e1 e2 = e2 e1", e1 * e2, e2 * e1),
             ("f1 f2 = f2 f1", f1 * f2, f2 * f1),
             ("[e1, f2] = 0", bracket(e1, f2), zero),
             ("[e2, f1] = 0", bracket(e2, f1), zero)]
    for i in (1, 2):
        pj = P.other(i)
        line = (kk(pj) + kk(-pj) * minus) * (P.qi_pow(i, pj)
                                             - P.qi_pow(i, -pj)).inverse()
        rels.append((f"[e{i}, f{i}] = weight line",
                     bracket(images[f"e{i}"], images[f"f{i}"]), line))
    return rels


def test_flipped_coproduct_sign_fails_the_algebra_map_check():
    # Delta(e1) = e1 (x) 1 - K^p2 (x) e1: one sign flipped, before any
    # coproduct is cached, so every monomial with an e1 inherits it
    A = Algebra.for_pair(2, 3)
    one = A.params.one
    e1, unit = A.monomial(1, 0, 0, 0, 0), A.monomial(0, 0, 0, 0, 0)
    kp2 = A.monomial(0, 0, 0, 0, A.p2)
    A._generator_coproducts()["e1"] = TensorElement(
        A, {(e1, unit): one, (kp2, e1): -one})
    check = _hopf_checks(A)["coproduct is an algebra map"]
    assert not check.passed
    # the first relation, in report order, that the mutated images break
    # in A (x) A is the one named
    rels = _relations_on_tensor_images(A, A._generator_coproducts())
    assert [name for name, _, _ in rels] == [
        c.check_id for c in A.verify_defining_relations()]
    witness = next(name for name, lhs, rhs in rels if lhs != rhs)
    assert f"first at {witness};" in check.detail + ";"


def test_relation_failing_in_the_algebra_fails_every_premise():
    # double the weight line W in the copy-1 rewrite f1 e1 = e1 f1 - W:
    # [e1, f1] = weight line now fails in A itself, although eps, which
    # never multiplies in A, still respects every relation on its images
    A = Algebra.for_pair(2, 3)
    table = A._fe1[(1, 1)]
    table[1] = {t: w + w for t, w in table[1].items()}
    A._fuse.clear()
    assert [c.check_id for c in A.verify_defining_relations()
            if not c.passed] == ["[e1, f1] = weight line"]
    checks = _hopf_checks(A)
    for check_id in PREMISES:
        check = checks[check_id]
        assert not check.passed, check_id
        assert ("relations failing in A itself: [e1, f1] = weight line"
                in check.detail), check_id
    assert "failures: 0;" in checks["counit is multiplicative"].detail
    for check_id in ("coassociativity", "counit axiom", "antipode axiom"):
        assert ("premise failed: coproduct is an algebra map"
                in checks[check_id].detail), check_id


def test_weight_line_crossing_identity():
    # W(c) f^t = f^t W(c - 2t) — the shift rule the rewrite tables rely on
    A = Algebra.for_pair(3, 4)
    for i in (1, 2):
        p = A.params.p(i)
        for c in range(-2, 3):
            for t in range(1, p):
                line = A.element({
                    A.monomial(0, 0, 0, 0, A.params.other(i)):
                        A.params.qi_pow(i, A.params.other(i) * c),
                    A.monomial(0, 0, 0, 0, -A.params.other(i)):
                        -A.params.qi_pow(i, -A.params.other(i) * c),
                })
                shifted = A.element({
                    A.monomial(0, 0, 0, 0, A.params.other(i)):
                        A.params.qi_pow(i, A.params.other(i) * (c - 2 * t)),
                    A.monomial(0, 0, 0, 0, -A.params.other(i)):
                        -A.params.qi_pow(i, -A.params.other(i) * (c - 2 * t)),
                })
                ft = A.f(i).power(t)
                assert line * ft == ft * shifted
