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
inherited from Python's bignums.  One more slot, `root`, tags the powers
of zeta (below); equality and hashing do not read it.

Roots of unity by exponent.  Every K-eigenvalue, averager ratio, family
weight and q-power is a power of zeta.  The field's table objects
`zeta_pows[k]` carry k in the slot `root`; so does `one`, which is
`zeta_pows[0]`, and, for even N, `minus_one`, which is `zeta_pows[N/2]`.
Every other number holds None.  The tag is a certificate, not a
classification: root == k implies x == zeta^k, and an untagged power of
zeta is allowed.  Exactness: zeta has order N, so zeta^j zeta^k =
zeta^((j+k) mod N), (zeta^k)^-1 = zeta^(-k mod N) and (zeta^k)^n =
zeta^(kn mod N) for every integer n.  For even N, zeta^(N/2) squares to 1
and is not 1, so it is -1, the field's only other root of x^2 = 1, and
-zeta^k = zeta^(k+N/2).  The table holds each power's canonical form, so
every shortcut returns the same canonical value the general path would,
and equality stays one exact coefficient comparison.

Multiplication.  `CycloField._mul`, after the field check, returns
`zeta_pows[(j+k) mod N]` for two tagged operands and, by exponent, the
other operand or its negation for a tagged +-1.  An untagged operand is
compared with +-1, exact by the canonical form.  Only the rest build a
product: the loop visits the nonzero coefficients of both operands, and
each partial product a_i * b_j * x^(i+j) goes straight into the result,
unchanged when i + j < d, otherwise through the field's table of sparse
reduced rows of x^k (d <= k <= 2d - 2).  There is no dense d^2 loop and
no separate reduction sweep.  The kernel is shaped by the verifier's
traffic.  Over one pass of each benchmark workload (verify at (2,3), the
(3,4) smoke, the (2,5) dump), both operands are powers of zeta in 74%,
68% and 47% of multiplies, and an operand is +-1 in 87%, 77% and 81%.
Only 3,436, 1,744 and 3,105 multiplies reach `make` (5,474, 2,727 and
3,407 with the +-1 compares alone).  Of those, 72%, 74% and 53% have an
operand with a single nonzero coefficient, and no operand has more than
d/4 nonzeros.  Packing coefficient vectors into one integer (Kronecker
substitution) would cost O(d) Python steps per product to pack and
unpack, more than the handful of partial products a sparse product
needs.  Negation and powers of a root read the table too; any other
negation maps `operator.neg` over the coefficients.

Inversion.  `CycloField.root_exponent(x)` reads the tag, or else looks
the numerator up in the table's numerator -> exponent map when the
denominator is 1.  A power zeta^k inverts to zeta^-k and a rational n/d
to d/n, with no arithmetic.  Only the rest run the extended Euclidean
algorithm over Q, memoised per field: the verifier divides by a few
dozen distinct values (q-integers, brackets, normalising constants)
thousands of times.  Over one pass of the three workloads that is 2, 2
and 13 distinct runs; before the shortcuts it was 16, 23 and 17, of
which 12, 15 and 4 inverted a root and 2, 6 and 0 a rational.

Elements of fields of different order never mix: addition, multiplication
and inversion raise ValueError, and they never compare or hash equal.
Fields of the same order are interchangeable.  `CycloField.scalar` is the
one coercion of a scalar factor for algebra elements, tensors and
matrices; it refuses an element of another field before any zero or
empty shortcut could let it pass unread.
"""

from __future__ import annotations

import cmath
import math
import operator
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
        # zeta^k for k in [0, order): integer vectors, denominator 1, each
        # tagged with its exponent k.  They are distinct field elements,
        # so `_exponents` (numerator -> k) is a well-defined inverse.
        vec = [0] * self.degree
        vec[0] = 1
        pows = [CycloNumber(self, tuple(vec), 1, 0)]
        for k in range(1, order):
            vec = self._shift_reduce(vec)
            pows.append(CycloNumber(self, tuple(vec), 1, k))
        self.zeta_pows = tuple(pows)
        self._exponents = {z.num: k for k, z in enumerate(pows)}
        # -1 = zeta^(order/2) when the order is even; for an odd order -1
        # is no power of zeta, and negation leaves the table.
        self._half = order // 2 if order % 2 == 0 else None
        self.one = pows[0]
        self.minus_one = -self.one

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
        """An int (bool included) or Fraction embedded; anything else,
        a float, Decimal or string among them, raises TypeError, so no
        inexact value is silently read as a binary rational."""
        if not isinstance(r, (int, Fraction)):
            raise TypeError(f"a rational scalar must be an int or a "
                            f"Fraction, not {type(r).__name__}")
        if r == 1:
            return self.one  # immutable, so sharing it is safe
        r = Fraction(r)
        vec = [0] * self.degree
        vec[0] = r.numerator
        return self.make(vec, r.denominator)

    def scalar(self, x) -> "CycloNumber | None":
        """x as a scalar of this field: an element of this field as it is,
        an int or Fraction embedded, None for anything else.  An element
        of another field raises ValueError, so a caller that checks here
        first refuses it even where its arithmetic would never touch it
        (a zero scalar, an empty operand)."""
        if isinstance(x, CycloNumber):
            if x.field.order != self.order:
                raise ValueError(_mixed(self, x.field))
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        return None

    def zeta(self, k: int) -> CycloNumber:
        """zeta_n^k for any integer k (exponent taken mod n)."""
        return self.zeta_pows[k % self.order]

    def root_exponent(self, x: "CycloNumber") -> "int | None":
        """The k in [0, order) with x == zeta^k, or None when x is no
        power of zeta.  Reads x's tag, else looks its numerator up in the
        table of powers (a power of zeta has denominator 1).

        >>> F = CycloField(24)
        >>> F.root_exponent(F.zeta(5) * F.zeta(-7))
        22
        >>> F.root_exponent(F.make(F.zeta(5).num))  # untagged, looked up
        5
        >>> F.root_exponent(F.minus_one), F.root_exponent(F.one + F.zeta(1))
        (12, None)
        """
        if x.field.order != self.order:
            raise ValueError(_mixed(self, x.field))
        k = x.root
        if k is None and x.den == 1:
            k = self._exponents.get(x.num)
        return k

    def fold(self, vec: Sequence[int], den: int = 1) -> CycloNumber:
        """sum(vec[k] * zeta^k) / den for an integer vector indexed by the
        exponent k in [0, order), reduced modulo Phi_n in one sweep."""
        d = self.degree
        acc = list(vec[:d]) + [0] * (d - len(vec))
        pows = self.zeta_pows
        for k in range(d, len(vec)):
            c = vec[k]
            if c:
                p = pows[k].num
                for i in compress(range(d), p):
                    acc[i] += c * p[i]
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

    def _sub(self, a: "CycloNumber", b: "CycloNumber") -> "CycloNumber":
        if a.field.order != b.field.order:
            raise ValueError(_mixed(a.field, b.field))
        if a.den == b.den:
            return self.make([x - y for x, y in zip(a.num, b.num)], a.den)
        return self.make(
            [x * b.den - y * a.den for x, y in zip(a.num, b.num)],
            a.den * b.den,
        )

    def _mul(self, a: "CycloNumber", b: "CycloNumber") -> "CycloNumber":
        if a.field.order != b.field.order:
            raise ValueError(_mixed(a.field, b.field))
        # zeta^j zeta^k = zeta^(j+k), and a unit factor costs no
        # arithmetic: a tag is read by exponent, an untagged operand is
        # compared with +-1.  Canonical forms are unique, so the compares
        # are exact and every shortcut returns the canonical product.
        j, k = a.root, b.root
        if j is not None:
            if k is not None:
                return self.zeta_pows[(j + k) % self.order]
            if j == 0:
                return b
            if j == self._half:
                return -b
        elif a.den == 1:
            if a.num == self.one.num:
                return b
            if a.num == self.minus_one.num:
                return -b
        if k is not None:
            if k == 0:
                return a
            if k == self._half:
                return -a
        elif b.den == 1:
            if b.num == self.one.num:
                return a
            if b.num == self.minus_one.num:
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
        """zeta^-k for a power zeta^k and den/num for a rational num/den;
        else the extended Euclidean algorithm in Q[x] modulo Phi,
        memoised per field."""
        k = self.root_exponent(x)  # refuses another field's element
        if k is not None:
            return self.zeta_pows[-k % self.order]
        if not any(x.num[1:]):
            if not x.num[0]:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return self.make((x.den,) + x.num[1:], x.num[0])
        cached = self._inverses.get(x)
        if cached is not None:
            return cached
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

    __slots__ = ("field", "num", "den", "_hash", "root")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int,
                 root: "int | None" = None):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None
        # k when this is the field's table object zeta_pows[k], else None.
        # A certificate, not a classification: root == k implies
        # self == zeta^k, but an untagged number may be a power of zeta.
        self.root = root

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
        F = self.field
        if self.root is not None and F._half is not None:
            return F.zeta_pows[(self.root + F._half) % F.order]
        return CycloNumber(F, tuple(map(operator.neg, self.num)), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._sub(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._sub(other, self)

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
        k = self.field.root_exponent(self)
        if k is not None:
            return self.field.zeta_pows[k * n % self.field.order]
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
        self._brackets: dict[tuple[int, int], CycloNumber] = {}

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
        """[n] at the effective parameter of copy i, computed once per
        (i, n) and kept on the instance."""
        value = self._brackets.get((i, n))
        if value is None:
            value = self._brackets[(i, n)] = self.q_int(n, self.sl2_base(i))
        return value

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
