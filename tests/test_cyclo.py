"""Tests for exact cyclotomic arithmetic and the q-integer layer.

Oracles used here:
  * frozen coefficient vectors for the relevant cyclotomic polynomials,
    cross-checked against sympy's independent implementation;
  * the complex embedding zeta -> exp(2*pi*i/N) as a floating-point sanity
    oracle (tolerance 1e-9) for canonical-form soundness;
  * an independently coded q-Pascal recurrence for Gaussian binomials.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
import sympy

from qpair import cyclo
from qpair.cyclo import CycloField, Params, cyclotomic_polynomial

# The polynomials the three reference pairs live over, frozen:
#   N = 24 -> x^8 - x^4 + 1, N = 40 -> x^16 - x^12 + x^8 - x^4 + 1,
#   N = 48 -> x^16 - x^8 + 1.
FROZEN_PHI = {
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
    40: (1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, 1),
    48: (1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_cyclotomic_polynomials_match_frozen_and_sympy():
    for n, frozen in FROZEN_PHI.items():
        ours = cyclotomic_polynomial(n)
        assert ours == frozen
        ref = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs()
        assert tuple(reversed([int(c) for c in ref])) == ours
    # a few more orders for good measure
    for n in (1, 2, 6, 12, 30, 36):
        ref = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs()
        assert tuple(reversed([int(c) for c in ref])) == cyclotomic_polynomial(n)


def _random_element(field, rng, height=9):
    num = [rng.randint(-height, height) for _ in range(field.degree)]
    den = rng.randint(1, height)
    return field.make(num, den)


def test_fold_wraps_and_kills_phi():
    rng = random.Random(49)
    for p1, p2 in [(2, 3), (2, 5), (3, 4)]:
        P = Params(p1, p2)
        F = P.field
        n = P.N
        # zeta^N -> 1
        assert F.zeta(n) == F.fold([1]) == 1
        assert F.zeta(n + 5) == F.fold([0] * 5 + [1])
        # zeta^(N/2) -> -1 (K has order N/2 and q^(N/2) = -1)
        assert F.fold([0] * (n // 2) + [1]) == -1
        # Phi_N(zeta) -> 0
        assert F.fold(list(F.phi)).is_zero()
        # a full exponent vector over a denominator, against the embedding
        root = cmath.exp(2j * cmath.pi / n)
        for _ in range(20):
            vec = [rng.randint(-9, 9) for _ in range(n)]
            den = rng.randint(1, 9)
            want = sum(c * root ** k for k, c in enumerate(vec)) / den
            assert abs(F.fold(vec, den).evaluate() - want) < 1e-9


def test_canonical_form_is_sound_against_float_oracle():
    rng = random.Random(20240817)
    for p1, p2 in [(2, 3), (2, 5), (3, 4)]:
        F = Params(p1, p2).field
        for _ in range(200):
            x = _random_element(F, rng)
            v = x.evaluate()
            assert x.is_zero() == (abs(v) < 1e-9)
            # rebuilding from the reported coefficients is the identity
            coeffs = x.coefficients()
            den = math.lcm(*(c.denominator for c in coeffs))
            assert F.fold([int(c * den) for c in coeffs], den) == x


def test_field_axioms_on_random_triples():
    rng = random.Random(5)
    F = Params(2, 3).field
    for _ in range(120):
        a, b, c = (_random_element(F, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + F.zero == a and a * F.one == a
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inverse() == F.one


def test_division_by_zero_is_signalled():
    F = Params(2, 3).field
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_mixed_field_arithmetic_is_rejected():
    F24, F40, F48 = CycloField(24), CycloField(40), CycloField(48)
    with pytest.raises(ValueError):
        F24.zeta(1) + F40.zeta(1)
    with pytest.raises(ValueError):
        F24.zeta(1) - F40.zeta(1)
    with pytest.raises(ValueError):
        F40.zeta(3) * F24.zeta(1)
    with pytest.raises(ValueError):
        F40.zeta(3) / F48.zeta(1)  # equal degrees, different fields
    with pytest.raises(ValueError):
        F24._inverse(F48.zeta(1))
    # the unit short-circuit in _mul runs after the field check
    for unit, other in ((F24.one, F40.zeta(1)), (F24.minus_one, F40.zeta(1)),
                        (F40.one, F48.zeta(1))):
        with pytest.raises(ValueError):
            unit * other
        with pytest.raises(ValueError):
            other * unit
    # the scalar coercion of elements, tensors and matrices refuses them too
    with pytest.raises(ValueError):
        F24.scalar(F40.zero)
    assert F24.scalar(CycloField(24).zeta(1)) == F24.zeta(1)
    assert F24.scalar(Fraction(3, 4)) == F24.from_rational(Fraction(3, 4))
    assert F24.scalar("3") is None
    # fields of one order are interchangeable
    assert CycloField(24).zeta(1) * F24.zeta(1) == F24.zeta(2)
    assert CycloField(24).zeta(1) + F24.zeta(1) == F24.zeta(1) * 2


def test_equal_coefficients_in_different_fields_are_distinct():
    # Q(zeta_40) and Q(zeta_48) both have degree 16, so zeta^1 has the
    # same coefficient vector in each
    F40, F48 = CycloField(40), CycloField(48)
    assert F40.zeta(1).num == F48.zeta(1).num
    assert F40.zeta(1) != F48.zeta(1)
    assert hash(F40.zeta(1)) != hash(F48.zeta(1))
    assert len({F40.zeta(1), F48.zeta(1)}) == 2
    assert CycloField(40).zeta(1) == F40.zeta(1)
    assert hash(CycloField(40).zeta(1)) == hash(F40.zeta(1))


# ---------------------------------------------------------------------------
# Multiply and inverse against sympy's cyclotomic reduction
# ---------------------------------------------------------------------------

X = sympy.Symbol("x")


def _to_sympy(x):
    coeffs = [sympy.Rational(c.numerator, c.denominator)
              for c in reversed(x.coefficients())]
    return sympy.Poly(coeffs, X, domain="QQ")


def _from_sympy(F, poly):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (F.degree - len(coeffs)))


def _operand(F, rng, shape):
    """A random element of the given shape, possibly with a denominator."""
    d = F.degree
    den = rng.choice((1, 1, rng.randint(2, 30)))
    if shape == "term":
        # +-c * zeta^k over the whole group, so high powers reduce
        c = rng.choice((-1, 1)) * rng.randint(1, 50)
        return F.zeta(rng.randrange(F.order)) * Fraction(c, den)
    count = rng.randint(2, d // 2) if shape == "sparse" else d
    num = [0] * d
    for i in rng.sample(range(d), count):
        num[i] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
    return F.make(num, den)


@pytest.mark.parametrize("order", [24, 40, 48])
def test_mul_matches_sympy_remainder(order):
    rng = random.Random(order)
    F = CycloField(order)
    phi = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    shapes = ("term", "sparse", "dense")
    for _ in range(60):
        a = _operand(F, rng, rng.choice(shapes))
        b = _operand(F, rng, rng.choice(shapes))
        want = _from_sympy(F, (_to_sympy(a) * _to_sympy(b)).rem(phi))
        assert (a * b).coefficients() == want
        assert F._mul(a, b) == F._mul(b, a)


@pytest.mark.parametrize("order", [24, 40, 48])
def test_unit_factors_match_sympy_remainder(order):
    # +-1 factors skip the product loop; near-units must not
    rng = random.Random(order + 2)
    F = CycloField(order)
    phi = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    factors = (F.one, F.minus_one, CycloField(order).one,
               F.zeta(order // 2),                    # -1, by another route
               F.from_rational(Fraction(1, 2)), F.from_rational(-2),
               F.one + F.zeta(1))
    for shape in ("term", "sparse", "dense") * 4:
        a = _operand(F, rng, shape)
        if rng.random() < 0.5:
            a = a * Fraction(1, rng.randint(2, 30))
        for u in factors:
            want = _from_sympy(F, (_to_sympy(u) * _to_sympy(a)).rem(phi))
            for got in (u * a, a * u):
                assert got.coefficients() == want
                assert got == F.make(got.num, got.den)  # canonical form
    assert F.minus_one * F.minus_one == F.one
    assert F.one * F.one == F.one


@pytest.mark.parametrize("order", [24, 40, 48])
def test_inverse_matches_sympy_and_is_stable_when_repeated(order):
    rng = random.Random(order + 1)
    F = CycloField(order)
    phi = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    for shape in ("term", "sparse", "dense") * 5:
        x = _operand(F, rng, shape)
        first = x.inverse()
        assert first.coefficients() == _from_sympy(F, _to_sympy(x).invert(phi))
        assert x * first == 1
        again = F.make(x.num, x.den).inverse()  # an equal, distinct object
        assert again == first and x * again == 1


# ---------------------------------------------------------------------------
# Roots of unity by exponent
# ---------------------------------------------------------------------------

def _untagged(x):
    """An equal copy of x without its exponent tag, so its products take
    the general path."""
    return x.field.make(x.num, x.den)


@pytest.mark.parametrize("order", [24, 40, 48])
def test_every_table_power_carries_its_exponent(order):
    F = CycloField(order)
    assert [z.root for z in F.zeta_pows] == list(range(order))
    assert F.one.root == 0 and F.one is F.zeta_pows[0]
    assert F.minus_one.root == order // 2 and F.minus_one == -F.one
    assert F.minus_one.coefficients() == (-1,) + (0,) * (F.degree - 1)
    # numbers made any other way carry no tag, whatever their value
    assert F.zero.root is None
    assert _untagged(F.zeta(3)).root is None
    assert F.from_rational(-1).root is None
    assert all(F.root_exponent(_untagged(z)) == k
               for k, z in enumerate(F.zeta_pows))
    assert F.root_exponent(F.zero) is None
    assert F.root_exponent(F.one + F.zeta(1)) is None
    assert F.root_exponent(F.from_rational(2)) is None
    assert F.root_exponent(F.zeta(2) * Fraction(1, 3)) is None


@pytest.mark.parametrize("order", [24, 40, 48])
def test_root_arithmetic_matches_the_general_path_and_sympy(order):
    rng = random.Random(order + 3)
    F = CycloField(order)
    phi = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    exponents = [0, order // 2, 1, order - 1] + [rng.randrange(order)
                                                 for _ in range(12)]
    for j in exponents:
        a = F.zeta(j)
        sa = _to_sympy(a)
        want_inv = _from_sympy(F, sa.invert(phi))
        for got in (a.inverse(), F._inverse(_untagged(a))):
            assert got.coefficients() == want_inv
            assert got.root == (-j) % order
        assert (1 / a).coefficients() == want_inv
        neg = -a
        assert neg == -_untagged(a) and neg.coefficients() == tuple(
            -c for c in a.coefficients())
        assert neg.root == (j + order // 2) % order
        for n in (0, 1, 2, 5, -1, -3, order + 1):
            want = _from_sympy(F, sa.invert(phi) ** -n % phi if n < 0
                               else sa ** n % phi)
            got = a ** n
            assert got.coefficients() == want
            assert got.root == j * n % order
            assert _untagged(a) ** n == got
            base = _untagged(a if n >= 0 else a.inverse())
            assert got == math.prod([base] * abs(n), start=_untagged(F.one))
        for k in exponents:
            b = F.zeta(k)
            got = a * b
            assert got.root == (j + k) % order
            general = _untagged(a) * _untagged(b)
            assert general == got and general.root is None
            assert got.coefficients() == _from_sympy(
                F, (sa * _to_sympy(b)).rem(phi))
            assert a / b == F.zeta(j - k)
    # a tagged root times a non-root takes the general path
    x = F.one + F.zeta(3) * 2
    for j in exponents:
        assert F.zeta(j) * x == _untagged(F.zeta(j)) * x
        assert (x * F.zeta(j)).coefficients() == _from_sympy(
            F, (_to_sympy(x) * _to_sympy(F.zeta(j))).rem(phi))


@pytest.mark.parametrize("order", [24, 40, 48])
def test_roots_and_rationals_never_enter_euclid(order, monkeypatch):
    def refuse(*args):
        raise AssertionError("extended Euclid entered")

    monkeypatch.setattr(cyclo, "_fdivmod", refuse)
    F = CycloField(order)
    for k, z in enumerate(F.zeta_pows):
        assert z.inverse() is F.zeta_pows[-k % order]
        assert _untagged(z).inverse() is F.zeta_pows[-k % order]
        assert z ** -3 is F.zeta_pows[-3 * k % order]
    for r in (Fraction(1, 2), Fraction(-3, 7), 5, -1, Fraction(-9, 4)):
        x = F.from_rational(r)
        assert x.inverse() == F.from_rational(1 / Fraction(r))
        assert x ** -2 == F.from_rational(Fraction(r) ** -2)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    assert not F._inverses  # nothing reached the memo
    # every other number still runs the algorithm
    with pytest.raises(AssertionError, match="Euclid entered"):
        (F.one + F.zeta(1)).inverse()


def test_odd_order_negation_leaves_the_table():
    # for odd N, -1 and -zeta^k are no powers of zeta_N
    F = CycloField(15)
    assert F.minus_one.root is None and F.root_exponent(F.minus_one) is None
    for k, z in enumerate(F.zeta_pows):
        assert (-z).root is None and -z + z == F.zero
        assert F.root_exponent(-z) is None
        assert z * F.minus_one == -z == F.minus_one * z
        assert (-z).inverse() == -F.zeta(-k)


def test_root_shortcuts_keep_the_field_check():
    F24, F40 = CycloField(24), CycloField(40)
    pairs = ((F24.zeta(1), F40.zeta(1)), (F24.one, F40.minus_one),
             (F24.minus_one, F40.zeta(7)), (F24.zeta(5), F40.one))
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                x * y
            with pytest.raises(ValueError):
                x - y
            with pytest.raises(ValueError):
                x / y
            with pytest.raises(ValueError):
                -x * y
            with pytest.raises(ValueError):
                x ** -1 * y
            with pytest.raises(ValueError):
                x.field._inverse(y)
            with pytest.raises(ValueError):
                x.field.root_exponent(y)
    with pytest.raises(TypeError):
        F24.zeta(1) ** F40.zeta(1)
    # the table a power, negation or inverse reads is its own field's
    assert (F40.zeta(3) ** 5).field.order == 40
    assert (-F40.zeta(3)).field.order == 40
    assert F40.zeta(3).inverse().field.order == 40


def test_evaluate_quarter_turn_is_i():
    for p1, p2 in [(2, 3), (2, 5), (3, 4)]:
        P = Params(p1, p2)
        assert abs(P.zeta(P.N // 4).evaluate() - 1j) < 1e-12


def test_mixed_rational_arithmetic():
    P = Params(2, 3)
    x = P.zeta(3)
    assert x * 2 / 2 == x
    assert x + 0 == x
    assert (x * Fraction(3, 4)) / Fraction(3, 4) == x
    assert 1 - (1 - x) == x
    assert (5 / P.rational(5)) == 1


def test_param_validation():
    with pytest.raises(ValueError):
        Params(1, 3)
    with pytest.raises(ValueError):
        Params(3, 1)
    with pytest.raises(ValueError):
        Params(2, 4)
    with pytest.raises(ValueError):
        Params(3, 6)
    Params(3, 4)  # coprime, both >= 2: fine


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------

def test_q_int_defining_identity():
    # [n]*(b - b^-1) == b^n - b^-n for every |n| <= 2*p1*p2 and each base
    for p1, p2 in [(2, 3), (2, 5)]:
        P = Params(p1, p2)
        for base in (P.q, P.q1, P.q2, P.sl2_base(1), P.sl2_base(2)):
            if base == 1 or base == -1:
                continue
            binv = base.inverse()
            for n in range(-P.korder, P.korder + 1):
                lhs = P.q_int(n, base) * (base - binv)
                assert lhs == base**n - binv**n


def test_q_int_rejects_degenerate_base():
    P = Params(2, 3)
    with pytest.raises(ValueError):
        P.q_int(3, P.one)
    with pytest.raises(ValueError):
        P.q_int(3, P.field.minus_one)
    # q^(N/2) = -1 is degenerate too
    with pytest.raises(ValueError):
        P.q_int(2, P.zeta(P.N // 2))


def test_bracket_reflection_symmetries():
    # [p1 - m]_1 = (-1)^(p2+1) [m]_1 and [p2 - m]_2 = (-1)^(p1+1) [m]_2
    for p1, p2 in [(2, 3), (2, 5), (3, 4)]:
        P = Params(p1, p2)
        s1 = (-1) ** (p2 + 1)
        s2 = (-1) ** (p1 + 1)
        for m in range(0, p1 + 1):
            assert P.bracket(1, p1 - m) == P.bracket(1, m) * s1
        for m in range(0, p2 + 1):
            assert P.bracket(2, p2 - m) == P.bracket(2, m) * s2


def test_bracket_vanishing_pattern():
    # [m]_i vanishes exactly at multiples of p_i; float oracle agrees
    for p1, p2 in [(2, 3), (3, 4)]:
        P = Params(p1, p2)
        for i, p in ((1, p1), (2, p2)):
            base = P.sl2_base(i).evaluate()
            for m in range(0, 2 * p + 1):
                val = P.bracket(i, m)
                assert val.is_zero() == (m % p == 0)
                ref = (base**m - base**-m) / (base - 1 / base)
                assert abs(val.evaluate() - ref) < 1e-9


def test_bracket_table_matches_q_int():
    # each bracket is computed once per (i, n) and then read back
    for p1, p2 in [(2, 3), (3, 2), (3, 4)]:
        P = Params(p1, p2)
        for i in (1, 2):
            base = P.sl2_base(i)
            for n in range(-P.korder, P.korder + 1):
                value = P.bracket(i, n)
                assert value == P.q_int(n, base)
                assert P.bracket(i, n) is value
        with pytest.raises(ValueError):
            P.bracket(3, 1)


def test_bracket_two_at_2_3():
    P = Params(2, 3)
    assert P.bracket(1, 2).is_zero()
    assert abs(P.sl2_base(1).evaluate() - (-1j)) < 1e-12
    assert P.bracket(2, 2) == -1  # [2] at exp(2*pi*i/3) is 2*cos(2*pi/3)


# ---------------------------------------------------------------------------
# Gaussian binomials, with the q-Pascal recurrence as the oracle
# ---------------------------------------------------------------------------

def _pascal_table(P, base, size):
    """Independent oracle: [m,j] = q^j [m-1,j] + q^(j-m) [m-1,j-1]."""
    binv = base.inverse()
    table = {(0, 0): P.one}
    for m in range(1, size + 1):
        for j in range(0, m + 1):
            a = table.get((m - 1, j), P.zero) * base**j
            b = table.get((m - 1, j - 1), P.zero) * (binv ** (m - j))
            table[(m, j)] = a + b
    return table


def test_q_binom_matches_pascal_oracle():
    for p1, p2 in [(2, 3), (3, 4)]:
        P = Params(p1, p2)
        for base in (P.q, P.zeta(5), P.zeta(7)):
            if base == 1 or base == -1:
                continue
            table = _pascal_table(P, base, 5)
            for m in range(0, 6):
                for n in range(0, m + 1):
                    assert P.q_binom(m, n, base) == table[(m, n)]


def test_q_binom_edges_and_examples():
    P = Params(2, 3)
    for m in range(0, 5):
        assert P.q_binom(m, 0, P.q) == 1
        assert P.q_binom(m, m, P.q) == 1
    # the copy-2 binomial [2 choose 1] equals the copy-2 bracket [2]
    assert P.bracket_binom(2, 2, 1) == P.bracket(2, 2)
    with pytest.raises(ValueError):
        P.q_binom(2, 3, P.q)
    with pytest.raises(ValueError):
        P.q_binom(2, -1, P.q)


def test_q_binom_signals_vanishing_denominator():
    P = Params(2, 3)
    # at the copy-1 effective base, [2] = 0, so any n >= 2 is undefined
    with pytest.raises(ZeroDivisionError):
        P.q_binom(3, 2, P.sl2_base(1))
    # but n <= 1 is fine and [2 choose 1] = [2] = 0 by cancellation-free product
    assert P.q_binom(2, 1, P.sl2_base(1)).is_zero()


def test_evaluate_is_multiplicative():
    rng = random.Random(99)
    F = Params(3, 4).field
    for _ in range(60):
        x = _random_element(F, rng)
        y = _random_element(F, rng)
        lhs = (x * y).evaluate()
        rhs = x.evaluate() * y.evaluate()
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))
