"""Exact arithmetic in the cyclotomic field Q(zeta_N) with N = 4*p1*p2.

Every scalar in this package -- quantum parameters, structure constants,
matrix entries, functional values -- lives in the single cyclotomic field
Q(zeta_N), where zeta_N = exp(2*pi*i/N).  The quantum parameter is

    q = exp(pi*i/(2*p1*p2)) = zeta_N,      N = 4*p1*p2,

together with q1 = q^(2*p2) and q2 = q^(2*p1).

A field element is represented by its unique reduction modulo the N-th
cyclotomic polynomial Phi_N: a coefficient vector of length deg(Phi_N) =
euler_phi(N).  Phi_N is irreducible over Q, so the quotient ring is a field
and the representation is canonical -- equality and zero tests are exact
coefficient comparisons, with no floating point anywhere.

Storage.  Coefficients are stored as one tuple of Python ints plus a single
positive denominator, normalized so gcd(all numerators, denominator) = 1.
The dense tuple (length d = deg Phi_N) and the denominator are the canonical
form that equality, hashing and the JSON transport read; exactness is
inherited from Python's bignums.

Multiplication.  `CycloField._mul` visits only the nonzero coefficients of
both operands.  Each partial product a_i * b_j * x^(i+j) goes straight into
the result: unchanged when i + j < d, otherwise through the field's table of
sparse reduced rows of x^k (d <= k <= 2d - 2).  There is no dense d^2 loop
and no separate reduction sweep.  The kernel is shaped by the verifier's
traffic.  Over one pass of each benchmark workload, 88-98% of multiplies
have an operand with a single nonzero coefficient (a rational multiple of
a power of zeta), and no operand has more than d/4 nonzeros.  Packing
coefficient vectors into one integer (Kronecker substitution) would cost
O(d) Python steps per product to pack and unpack, more than the handful of
partial products a sparse product needs.  Most of those single-term
operands are units: over one pass at (2,3), (3,4) and (2,5), an operand
equal to 1 appears in 59%, 31% and 86% of multiplies and one equal to -1
in another 9%, 3% and 2%.  So `_mul`, after the field check, returns the
other operand for a factor of exactly 1 and its negation for exactly -1,
without building a product or calling `make`; the canonical form makes
both tests exact, and sharing the immutable operand is safe.

Inversion runs the extended Euclidean algorithm over Q and is memoised per
field: the verifier divides by a few dozen distinct values (q-integers,
brackets, normalising constants) thousands of times.

Elements of fields of different order never mix: addition, multiplication
and inversion raise ValueError, and they never compare or hash equal.
Fields of the same order are interchangeable.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "CycloField",
    "CycloNumber",
    "Params",
    "cyclotomic_polynomial",
]


# ---------------------------------------------------------------------------
# Integer polynomial helpers (little-endian coefficient lists).
# ---------------------------------------------------------------------------

def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials exactly (den monic, remainder known zero)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[dd + k]
        if c:
            out[k] = c
            for j, dj in enumerate(den):
                num[j + k] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial Phi_n (little-endian).

    Computed by the classical recursion: x^n - 1 divided by the product of
    Phi_d over the proper divisors d of n.

    >>> cyclotomic_polynomial(24)
    (1, 0, 0, 0, -1, 0, 0, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# The field.
# ---------------------------------------------------------------------------

class CycloField:
    """Arithmetic context for Q(zeta_n): reduction data and power caches.

    Instances are cheap to pass around; all CycloNumbers carry a reference
    to their field.  Two fields of the same order are interchangeable, but
    arithmetic never mixes elements of fields of different order.
    """

    def __init__(self, order: int):
        if order < 3:
            raise ValueError("cyclotomic order must be at least 3")
        self.order = order
        self.phi = cyclotomic_polynomial(order)
        self.degree = len(self.phi) - 1
        # Sparse reduction rows: x^k mod Phi_n for k in [degree, 2*degree-2],
        # stored as ((index, coeff), ...) over nonzero entries.  A product of
        # two reduced elements has degree at most 2*degree-2, so these rows
        # are all that multiplication ever needs.
        rows: list[tuple[tuple[int, int], ...]] = []
        cur = [-c for c in self.phi[: self.degree]]  # x^degree mod Phi
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        for _ in range(self.degree - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for i, c in rows[0]:
                    nxt[i] += top * c
            rows.append(tuple((i, c) for i, c in enumerate(nxt) if c))
            cur = nxt
        self._reduction = tuple(rows)
        self._root = cmath.exp(2j * cmath.pi / order)
        self._inverses: dict[CycloNumber, CycloNumber] = {}

        self.zero = CycloNumber(self, (0,) * self.degree, 1)
        one = [0] * self.degree
        one[0] = 1
        self.one = CycloNumber(self, tuple(one), 1)
        self.minus_one = -self.one

        # zeta^k for k in [0, order): integer vectors, denominator 1.
        pows = [self.one]
        vec = one
        for _ in range(order - 1):
            vec = self._shift_reduce(vec)
            pows.append(CycloNumber(self, tuple(vec), 1))
        self.zeta_pows = tuple(pows)

    def _shift_reduce(self, vec: list[int]) -> list[int]:
        """Multiply an integer coefficient vector by x, reducing mod Phi."""
        out = [0] + list(vec[:-1])
        top = vec[-1]
        if top:
            for i, c in self._reduction[0]:
                out[i] += top * c
        return out

    # -- construction -------------------------------------------------------

    def make(self, num: Iterable[int], den: int = 1) -> CycloNumber:
        """Normalize an integer coefficient vector / denominator pair."""
        num = tuple(num)
        if den == 1:
            return CycloNumber(self, num, 1)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = tuple(-c for c in num)
        g = math.gcd(den, *num)
        if g > 1:
            den //= g
            num = tuple(c // g for c in num)
        return CycloNumber(self, num, den)

    def from_rational(self, r: Rational) -> CycloNumber:
        r = Fraction(r)
        vec = [0] * self.degree
        vec[0] = r.numerator
        return self.make(vec, r.denominator)

    def zeta(self, k: int) -> CycloNumber:
        """zeta_n^k for any integer k (exponent taken mod n)."""
        return self.zeta_pows[k % self.order]

    def canonicalize(self, coeffs: Sequence[Rational]) -> CycloNumber:
        """Canonical form of sum(coeffs[k] * zeta^k) for a vector of any length.

        Exponents at or above the field order wrap around (zeta^n = 1); the
        rest is reduced modulo Phi_n.  This is the general entry point for
        building elements from arbitrary power expansions; internal arithmetic
        uses the faster fixed-length paths.
        """
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        acc = [0] * self.degree
        for k, f in enumerate(fracs):
            c = f.numerator * (den // f.denominator)
            if c:
                pvec = self.zeta_pows[k % self.order].num
                for i, p in enumerate(pvec):
                    if p:
                        acc[i] += c * p
        return self.make(acc, den)

    # -- arithmetic kernels (operate on CycloNumbers of this field) ---------

    def _add(self, a: "CycloNumber", b: "CycloNumber") -> "CycloNumber":
        if a.field.order != b.field.order:
            raise ValueError(_mixed(a.field, b.field))
        if a.den == b.den:
            return self.make([x + y for x, y in zip(a.num, b.num)], a.den)
        return self.make(
            [x * b.den + y * a.den for x, y in zip(a.num, b.num)],
            a.den * b.den,
        )

    def _mul(self, a: "CycloNumber", b: "CycloNumber") -> "CycloNumber":
        if a.field.order != b.field.order:
            raise ValueError(_mixed(a.field, b.field))
        # An exact unit factor costs no arithmetic: canonical forms are
        # unique, so these compares are exact and the result is canonical.
        one, minus_one = self.one.num, self.minus_one.num
        if a.den == 1:
            if a.num == one:
                return b
            if a.num == minus_one:
                return -b
        if b.den == 1:
            if b.num == one:
                return a
            if b.num == minus_one:
                return -a
        d = self.degree
        rows = self._reduction
        an, bn = a.num, b.num
        acc = [0] * d
        bsupport = list(compress(range(d), bn))
        for i in compress(range(d), an):
            ai = an[i]
            for j in bsupport:
                k = i + j
                if k < d:
                    acc[k] += ai * bn[j]
                else:
                    c = ai * bn[j]
                    for t, r in rows[k - d]:
                        acc[t] += c * r
        return self.make(acc, a.den * b.den)

    def _inverse(self, x: "CycloNumber") -> "CycloNumber":
        """Inverse by the extended Euclidean algorithm in Q[x] modulo Phi,
        memoised per field."""
        if x.field.order != self.order:
            raise ValueError(_mixed(self, x.field))
        cached = self._inverses.get(x)
        if cached is not None:
            return cached
        if x.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        # r0 = Phi, r1 = numerator polynomial of x; track s with s*x ≡ r1.
        r0 = [Fraction(c) for c in self.phi]
        r1 = [Fraction(c) for c in x.num]
        s0: list[Fraction] = [Fraction(0)]
        s1: list[Fraction] = [Fraction(1)]
        while _fdeg(r1) > 0:
            q, rem = _fdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _fsub(s0, _fmul(q, s1))
        c = r1[0]  # nonzero constant: Phi is irreducible and x != 0
        inv = [s * x.den / c for s in _fpad(s1, self.degree)]
        den = math.lcm(*(f.denominator for f in inv))
        out = self.make([f.numerator * (den // f.denominator) for f in inv], den)
        self._inverses[x] = out
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"CycloField(order={self.order}, degree={self.degree})"


def _mixed(a: CycloField, b: CycloField) -> str:
    return (f"cannot combine elements of Q(zeta_{a.order}) and "
            f"Q(zeta_{b.order})")


# Fraction-polynomial helpers for the (rare) inversion path.

def _fdeg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _fpad(p: list[Fraction], n: int) -> list[Fraction]:
    out = list(p[:n]) + [Fraction(0)] * max(0, n - len(p))
    return out


def _fsub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = _fpad(a, n)
    b = _fpad(b, n)
    return [x - y for x, y in zip(a, b)]


def _fmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _fdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    db = _fdeg(b)
    lead = b[db]
    rem = list(a)
    q = [Fraction(0)] * max(1, len(a) - db)
    for k in range(_fdeg(rem) - db, -1, -1):
        c = rem[db + k] / lead
        if c:
            q[k] = c
            for j in range(db + 1):
                rem[j + k] -= c * b[j]
    return q, rem[: db + 1] if db >= 0 else rem


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------

class CycloNumber:
    """An element of Q(zeta_N) in canonical reduced form.

    Immutable.  Supports +, -, *, /, ** with other elements of the same
    field and with ints/Fractions, exact equality, and hashing (usable as
    dict keys in sparse linear algebra).
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients over the power basis 1, zeta, ..., zeta^(d-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "CycloNumber":
        if isinstance(other, CycloNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._add(self, -other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._add(other, -self)

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            return self.field._mul(self, other)
        if isinstance(other, int):
            return self.field.make([other * c for c in self.num], self.den)
        if isinstance(other, Fraction):
            return self.field.make(
                [other.numerator * c for c in self.num],
                self.den * other.denominator,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.field.make(list(self.num), self.den * other)
        if isinstance(other, Fraction):
            return self.field.make(
                [other.denominator * c for c in self.num],
                self.den * other.numerator,
            )
        if isinstance(other, CycloNumber):
            return self.field._mul(self, other.field._inverse(other))
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.field._inverse(self)
        return inv.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.field._inverse(self)
            n = -n
        result = self.field.one
        while n:
            if n & 1:
                result = self.field._mul(result, base)
            base = self.field._mul(base, base) if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "CycloNumber":
        return self.field._inverse(self)

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            return (self.num == other.num and self.den == other.den
                    and self.field.order == other.field.order)
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field.order, self.num, self.den))
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- output ----------------------------------------------------------------

    def evaluate(self) -> complex:
        """Numerical value under zeta_N -> exp(2*pi*i/N)."""
        z = self.field._root
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c
        return acc / self.den

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*z" if abs(c) != 1 else ("z" if c > 0 else "-z"))
            else:
                terms.append(f"{c}*z^{k}" if abs(c) != 1 else (f"z^{k}" if c > 0 else f"-z^{k}"))
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return body if self.den == 1 else f"({body})/{self.den}"


# ---------------------------------------------------------------------------
# The exponent pair and its quantum constants.
# ---------------------------------------------------------------------------

class Params:
    """The coprime exponent pair (p1, p2) and all derived constants.

    The algebra attached to (p1, p2) is generated by two nilpotent raising /
    lowering pairs e_i, f_i (with e_i^{p_i} = f_i^{p_i} = 0) and a group-like
    K of order 2*p1*p2.  All eigenvalues live in Q(zeta_N), N = 4*p1*p2:

        q  = zeta_N            (so q^(2*p1*p2) = -1)
        q1 = q^(2*p2)          (order 2*p1; K-conjugation weight of e_1 is q1^2)
        q2 = q^(2*p1)          (order 2*p2)

    The two commuting sl2-type copies see the effective parameters
    q1^p2 and q2^p1; `bracket(i, n)` is the q-integer [n] at the effective
    parameter of copy i, the bracket that appears in every structure
    constant of the pair.

    >>> P = Params(2, 3)
    >>> P.N, P.korder, P.dimension
    (24, 12, 432)
    >>> P.bracket(1, 2).is_zero()   # [2] at copy 1 vanishes when p1 = 2
    True
    """

    def __init__(self, p1: int, p2: int):
        for p in (p1, p2):
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"exponents must be integers >= 2, got {p!r}")
        if math.gcd(p1, p2) != 1:
            raise ValueError(f"exponents must be coprime, got ({p1}, {p2})")
        self.p1 = p1
        self.p2 = p2
        self.N = 4 * p1 * p2
        self.korder = 2 * p1 * p2          # multiplicative order of K
        self.dimension = 2 * p1**3 * p2**3  # size of the monomial basis
        self.field = CycloField(self.N)
        self.zero = self.field.zero
        self.one = self.field.one

    # -- roots of unity -----------------------------------------------------

    def zeta(self, k: int) -> CycloNumber:
        return self.field.zeta(k)

    @property
    def q(self) -> CycloNumber:
        return self.field.zeta(1)

    @property
    def q1(self) -> CycloNumber:
        return self.q1_pow(1)

    @property
    def q2(self) -> CycloNumber:
        return self.q2_pow(1)

    def q1_pow(self, a: int) -> CycloNumber:
        """q1^a, exact."""
        return self.field.zeta(2 * self.p2 * a)

    def q2_pow(self, a: int) -> CycloNumber:
        return self.field.zeta(2 * self.p1 * a)

    def qi_pow(self, i: int, a: int) -> CycloNumber:
        return self.q1_pow(a) if i == 1 else self.q2_pow(a)

    def other(self, i: int) -> int:
        """The complementary exponent: p2 for copy 1, p1 for copy 2."""
        self._check_copy(i)
        return self.p2 if i == 1 else self.p1

    def p(self, i: int) -> int:
        self._check_copy(i)
        return self.p1 if i == 1 else self.p2

    def sl2_base(self, i: int) -> CycloNumber:
        """The effective quantum parameter of copy i: q_i raised to the
        complementary exponent."""
        return self.qi_pow(i, self.other(i))

    def sl2_base_pow(self, i: int, a: int) -> CycloNumber:
        return self.qi_pow(i, self.other(i) * a)

    def _check_copy(self, i: int) -> None:
        if i not in (1, 2):
            raise ValueError(f"copy index must be 1 or 2, got {i!r}")

    def rational(self, r: Rational) -> CycloNumber:
        return self.field.from_rational(r)

    def alpha_sign(self, alpha: int) -> CycloNumber:
        if alpha not in (1, -1):
            raise ValueError(f"sign parameter must be +1 or -1, got {alpha!r}")
        return self.one if alpha == 1 else self.field.minus_one

    # -- q-integers ----------------------------------------------------------

    def q_int(self, n: int, base: CycloNumber) -> CycloNumber:
        """The balanced q-integer [n] = (base^n - base^-n)/(base - base^-1).

        The base must not be +1 or -1 (the denominator would vanish);
        degenerate bases are rejected rather than limiting.
        """
        if base == 1 or base == -1:
            raise ValueError("q-integer base must not be +1 or -1")
        if n == 0:
            return self.zero
        binv = base.inverse()
        return (base**n - binv**n) / (base - binv)

    def q_factorial(self, n: int, base: CycloNumber) -> CycloNumber:
        """[n]! = [n][n-1]...[1] at the given base."""
        if n < 0:
            raise ValueError("q-factorial needs n >= 0")
        out = self.one
        for k in range(2, n + 1):
            out = out * self.q_int(k, base)
        return out

    def q_binom(self, m: int, n: int, base: CycloNumber) -> CycloNumber:
        """Gaussian binomial [m choose n] at the given base.

        Computed as the exact product of [m-n+t]/[t] for t = 1..n.  Raises
        ZeroDivisionError if a required denominator q-integer vanishes (the
        quotient-of-factorials form is then undefined at this base).
        """
        if not 0 <= n <= m:
            raise ValueError(f"need 0 <= n <= m, got ({m}, {n})")
        out = self.one
        for t in range(1, n + 1):
            den = self.q_int(t, base)
            if den.is_zero():
                raise ZeroDivisionError(
                    f"q-binomial ({m},{n}) undefined: [{t}] vanishes at this base"
                )
            out = out * self.q_int(m - n + t, base) / den
        return out

    # -- the brackets of the two copies --------------------------------------

    def bracket(self, i: int, n: int) -> CycloNumber:
        """[n] at the effective parameter of copy i."""
        return self.q_int(n, self.sl2_base(i))

    def bracket_factorial(self, i: int, n: int) -> CycloNumber:
        return self.q_factorial(n, self.sl2_base(i))

    def bracket_binom(self, i: int, m: int, n: int) -> CycloNumber:
        """Gaussian binomial of copy i."""
        return self.q_binom(m, n, self.sl2_base(i))

    def __repr__(self) -> str:
        return f"Params(p1={self.p1}, p2={self.p2})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Params) and (self.p1, self.p2) == (other.p1, other.p2)

    def __hash__(self):
        return hash((Params, self.p1, self.p2))
