"""The algebra attached to a coprime pair (p1, p2) and its Hopf structure.

Presentation.  Generators e1, e2, f1, f2, K, K^-1 with
    K K^-1 = 1,   K^(2 p1 p2) = 1,   e_i^(p_i) = f_i^(p_i) = 0,
    K e_i K^-1 = q_i^2 e_i,   K f_i K^-1 = q_i^-2 f_i,
    e1 e2 = e2 e1,   f1 f2 = f2 f1,   [e_i, f_j] = 0 for i != j,
    [e1, f1] = (K^p2 - K^-p2)/(q1^p2 - q1^-p2),
    [e2, f2] = (K^p1 - K^-p1)/(q2^p1 - q2^-p1).

Monomial basis.  Elements are stored in the ordered-monomial basis

    e1^m1 e2^m2 f1^n1 f2^n2 K^ell,
    0 <= m_i, n_i <= p_i - 1,   0 <= ell <= 2 p1 p2 - 1,

of size 2 p1^3 p2^3.  An AlgebraElement is a sparse dict from PBWMonomial
to CycloNumber with no stored zeros.

Normal ordering.  Products are normal-ordered through per-copy rewrite
tables: for each copy i and exponents (b, c) the table expands
f_i^b e_i^c as a combination of e_i^(c-j) f_i^(b-j) * (Laurent poly in K).
The tables are built once per algebra by repeatedly commuting a single e_i
leftward past a block of f_i (the one-step rule
f e^c = e^c f - [c] e^(c-1) * (weight line)), i.e. they are the memoized
transitive closure of the defining commutator.  Everything downstream --
Hopf operations, module actions, idempotents -- multiplies through this
single engine, so the independent closed forms in `commutator_closed_form`
and `coproduct_closed_form` are genuine cross-checks, not restatements.

Products go word pair by word pair.  An element is a sum of K-free
e/f words, each times a K-polynomial (the weight averagers of the block
layer are such polynomials), and the verifier's elements carry many K
terms on few words: the element products of the criterion-13 idempotent
and center checks at (3,4) form 100,848 term pairs but only 1,852 word
pairs.  `_word_product` expands the product of two words once, as
(word, K-shift, coefficient) triples, memoised per algebra.  An element
product u P(K) * v Q(K) is then one convolution P(zeta^w K) Q(K), with w
the weight of v, followed by the triples; `product_monomials` is the
single-term case of the same expansion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Union

from .cyclo import CycloNumber, Params
from .report import Check

__all__ = ["Algebra", "AlgebraElement", "PBWMonomial", "TensorElement"]

Scalar = Union[int, Fraction, CycloNumber]


class PBWMonomial(NamedTuple):
    """An ordered basis monomial e1^m1 e2^m2 f1^n1 f2^n2 K^ell.

    Plain tuple semantics: hashable, lexicographically ordered, cheap.
    Range validity (0 <= m_i, n_i < p_i, 0 <= ell < 2 p1 p2) is enforced by
    the Algebra factories that produce monomials.
    """

    m1: int
    m2: int
    n1: int
    n2: int
    ell: int


GENERATOR_NAMES = ("e1", "e2", "f1", "f2", "K", "Kinv", "one")


class Algebra:
    """The Hopf algebra for a parameter pair, with exact arithmetic."""

    def __init__(self, params: Params):
        self.params = params
        self.p1 = params.p1
        self.p2 = params.p2
        self.korder = params.korder
        self.field = params.field
        self.dimension = params.dimension
        self._zeta = params.field.zeta_pows
        self._N = params.N
        # rewrite tables: copy i -> {(b, c): {j: {k_exp: coeff}}}
        self._fe1 = self._build_fe_table(1)
        self._fe2 = self._build_fe_table(2)
        self._fuse = self._fuse_tables()
        self._word_products: dict[tuple, tuple] = {}
        self._word_rows: dict[tuple, tuple] = {}
        self._coproduct_cache: dict[PBWMonomial, TensorElement] = {}
        self._antipode_cache: dict[PBWMonomial, "AlgebraElement"] = {}
        self._gen_coproducts = None

    @classmethod
    def for_pair(cls, p1: int, p2: int) -> "Algebra":
        return cls(Params(p1, p2))

    @property
    def exhaustive_scans(self) -> bool:
        """Whether basis-wide scans visit every monomial instead of a sample.

        The one rule for every exhaustive-or-sampled choice: dimension at
        most 1000.  Among valid pairs that is (2,3) alone (dimension 432);
        the next product p1*p2 = 10 already gives dimension 2000.
        """
        return self.dimension <= 1000

    # ------------------------------------------------------------------
    # Basis bookkeeping
    # ------------------------------------------------------------------

    def monomial(self, m1: int, m2: int, n1: int, n2: int, ell: int) -> PBWMonomial:
        """Validated monomial constructor; ell is reduced mod 2*p1*p2."""
        if not (0 <= m1 < self.p1 and 0 <= n1 < self.p1):
            raise ValueError(f"copy-1 exponents out of range: {(m1, n1)}")
        if not (0 <= m2 < self.p2 and 0 <= n2 < self.p2):
            raise ValueError(f"copy-2 exponents out of range: {(m2, n2)}")
        return PBWMonomial(m1, m2, n1, n2, ell % self.korder)

    def basis_monomials(self) -> Iterator[PBWMonomial]:
        """All basis monomials, K-exponent fastest."""
        for m1 in range(self.p1):
            for m2 in range(self.p2):
                for n1 in range(self.p1):
                    for n2 in range(self.p2):
                        for ell in range(self.korder):
                            yield PBWMonomial(m1, m2, n1, n2, ell)

    def monomial_index(self, m: PBWMonomial) -> int:
        return ((((m.m1 * self.p2 + m.m2) * self.p1 + m.n1) * self.p2 + m.n2)
                * self.korder + m.ell)

    # ------------------------------------------------------------------
    # Element constructors
    # ------------------------------------------------------------------

    def element(self, terms: Mapping[PBWMonomial, Scalar]) -> "AlgebraElement":
        clean: dict[PBWMonomial, CycloNumber] = {}
        for mono, coeff in terms.items():
            mono = self.monomial(*mono)
            if not isinstance(coeff, CycloNumber):
                coeff = self.params.rational(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        return AlgebraElement(self, clean)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.monomial_element(PBWMonomial(0, 0, 0, 0, 0))

    def monomial_element(self, mono: PBWMonomial, coeff: Scalar = 1) -> "AlgebraElement":
        return self.element({mono: coeff})

    def generator(self, name: str) -> "AlgebraElement":
        """One of e1, e2, f1, f2, K, Kinv, one as an element."""
        shapes = {
            "e1": (1, 0, 0, 0, 0),
            "e2": (0, 1, 0, 0, 0),
            "f1": (0, 0, 1, 0, 0),
            "f2": (0, 0, 0, 1, 0),
            "K": (0, 0, 0, 0, 1),
            "Kinv": (0, 0, 0, 0, self.korder - 1),
            "one": (0, 0, 0, 0, 0),
        }
        if name not in shapes:
            raise ValueError(f"unknown generator {name!r}; expected one of {GENERATOR_NAMES}")
        return self.monomial_element(PBWMonomial(*shapes[name]))

    def e(self, i: int) -> "AlgebraElement":
        return self.generator("e1" if i == 1 else "e2")

    def f(self, i: int) -> "AlgebraElement":
        return self.generator("f1" if i == 1 else "f2")

    def k_power(self, t: int) -> "AlgebraElement":
        """K^t for any integer t."""
        return self.monomial_element(PBWMonomial(0, 0, 0, 0, t % self.korder))

    def balancing_element(self) -> "AlgebraElement":
        """The group-like implementing the square of the antipode: K^(p1-p2)."""
        return self.k_power(self.p1 - self.p2)

    def conjugation_weight_exponent(self, mono: tuple) -> int:
        """zeta-exponent of the scalar in K x K^-1 = zeta^w x for a monomial
        x, or for a K-free word (m1, m2, n1, n2)."""
        m1, m2, n1, n2 = mono[:4]
        return (4 * self.p2 * (m1 - n1) + 4 * self.p1 * (m2 - n2)) % self._N

    # ------------------------------------------------------------------
    # Normal-ordering engine
    # ------------------------------------------------------------------

    def _weight_line(self, i: int, c: int) -> dict[int, CycloNumber]:
        """(q_i^(pj*c) K^pj - q_i^(-pj*c) K^-pj) / (q_i^pj - q_i^-pj) as a
        K-exponent -> coefficient dict (exponents mod 2*p1*p2)."""
        pj = self.params.other(i)
        denom = self.params.qi_pow(i, pj) - self.params.qi_pow(i, -pj)
        return {
            pj % self.korder: self.params.qi_pow(i, pj * c) / denom,
            (-pj) % self.korder: -(self.params.qi_pow(i, -pj * c)) / denom,
        }

    def _build_fe_table(self, i: int):
        """Expand f_i^b e_i^c in normal order for all 0 <= b, c < p_i.

        Recursion on the leftmost single e:
            f^b e^c = e * (f^b e^(c-1)) - [b] * (f^(b-1) e^(c-1)) * W
        where W is the weight line of the one-step commutator shifted past
        e^(c-1).  Entry format: {(b, c): {j: kpoly}} meaning
        f^b e^c = sum_j e^(c-j) f^(b-j) * kpoly_j(K).
        """
        p = self.params.p(i)
        one = self.params.one
        table: dict[tuple[int, int], dict[int, dict[int, CycloNumber]]] = {}
        for b in range(p):
            for c in range(p):
                if b == 0 or c == 0:
                    table[(b, c)] = {0: {0: one}}
                    continue
                out: dict[int, dict[int, CycloNumber]] = {}
                for j, kpoly in table[(b, c - 1)].items():
                    out[j] = dict(kpoly)
                # -[b] f^(b-1) h(-(b-1)) e^(c-1), with h crossing e^(c-1)
                coef = -self.params.bracket(i, b)
                shifted = {
                    t: w * self.params.qi_pow(i, 2 * t * (c - 1))
                    for t, w in self._weight_line(i, -(b - 1)).items()
                }
                for j, kpoly in table[(b - 1, c - 1)].items():
                    dest = out.setdefault(j + 1, {})
                    for t1, w1 in kpoly.items():
                        for t2, w2 in shifted.items():
                            t = (t1 + t2) % self.korder
                            val = dest.get(t)
                            add = coef * w1 * w2
                            dest[t] = add if val is None else val + add
                # prune exact zeros
                table[(b, c)] = {
                    j: {t: w for t, w in kp.items() if not w.is_zero()}
                    for j, kp in out.items()
                }
        return table

    def _fuse_tables(self):
        """Combine the two per-copy tables into one flat lookup:
        (b1, c1, b2, c2) -> tuple of (j1, j2, t1, t2, coeff)."""
        fuse = {}
        for (b1, c1), t1map in self._fe1.items():
            for (b2, c2), t2map in self._fe2.items():
                entries = []
                for j1, kp1 in t1map.items():
                    for j2, kp2 in t2map.items():
                        for t1, w1 in kp1.items():
                            for t2, w2 in kp2.items():
                                entries.append((j1, j2, t1, t2, w1 * w2))
                fuse[(b1, c1, b2, c2)] = tuple(entries)
        return fuse

    def _word_product(self, wu: tuple, wv: tuple) -> tuple:
        """Normal-ordered expansion of the product of two K-free words.

        ``wu`` and ``wv`` are exponent tuples (m1, m2, n1, n2) of
        e1^m1 e2^m2 f1^n1 f2^n2.  The product is returned as a tuple of
        (row, shift, coeff) triples meaning
        wu * wv = sum coeff * word * K^shift, where ``row`` lists the
        word's basis monomials indexed by K-exponent.  Memoised per
        algebra: there are at most (p1 p2)^4 word pairs.
        """
        key = (wu, wv)
        cached = self._word_products.get(key)
        if cached is not None:
            return cached
        a1, a2, b1, b2 = wu
        c1, c2, d1, d2 = wv
        p1, p2 = self.p1, self.p2
        korder = self.korder
        zeta = self._zeta
        N = self._N
        acc: dict[tuple, CycloNumber] = {}
        for j1, j2, t1, t2, coef in self._fuse[(b1, c1, b2, c2)]:
            E1 = a1 + c1 - j1
            if E1 >= p1:
                continue
            F1 = b1 + d1 - j1
            if F1 >= p1:
                continue
            E2 = a2 + c2 - j2
            if E2 >= p2:
                continue
            F2 = b2 + d2 - j2
            if F2 >= p2:
                continue
            # Laurent K-factors crossing the trailing f-blocks of wv
            ze = (-4 * p2 * t1 * d1 - 4 * p1 * t2 * d2) % N
            term = ((E1, E2, F1, F2), (t1 + t2) % korder)
            add = coef * zeta[ze]
            val = acc.get(term)
            acc[term] = add if val is None else val + add
        out = tuple((self._word_row(word), shift, c)
                    for (word, shift), c in acc.items() if not c.is_zero())
        self._word_products[key] = out
        return out

    def _word_row(self, word: tuple) -> tuple:
        """The basis monomials word * K^ell for ell = 0 .. korder - 1."""
        row = self._word_rows.get(word)
        if row is None:
            row = tuple(PBWMonomial(*word, ell) for ell in range(self.korder))
            self._word_rows[word] = row
        return row

    def product_monomials(self, u: PBWMonomial, v: PBWMonomial) -> dict[PBWMonomial, CycloNumber]:
        """Structure constants: the normal-ordered expansion of u * v.

        The single-term case of the word-by-word product: K^l crosses
        v's word as zeta^(l * weight), then the word product is shifted
        by l + m.
        """
        l, m = u[4], v[4]
        twist = self._zeta[(l * self.conjugation_weight_exponent(v)) % self._N]
        korder = self.korder
        return {row[(shift + l + m) % korder]: c * twist
                for row, shift, c in self._word_product(u[:4], v[:4])}

    # ------------------------------------------------------------------
    # Closed-form commutators (independent of the rewrite engine)
    # ------------------------------------------------------------------

    def commutator_closed_form(self, i: int, m: int, n: int) -> "AlgebraElement":
        """[e_i^m, f_i^n] by the explicit q-binomial sum.

        For 1 <= m, n <= p_i - 1:

            sum_{j=1}^{min(m,n)} (-1)^(j-1) [j]! C(m,j) C(n,j)
                * e_i^(m-j) f_i^(n-j) * prod_{t=0}^{j-1} W_i(m - n + t)

        where W_i(c) is the weight line
        (q_i^(pj c) K^pj - q_i^(-pj c) K^-pj)/(q_i^pj - q_i^-pj) and all
        brackets are taken at the effective parameter of copy i.  This
        routine never calls the rewrite engine: K-polynomials are convolved
        directly, so it is an independent route to the same element.
        """
        p = self.params.p(i)
        if not (1 <= m <= p - 1 and 1 <= n <= p - 1):
            raise ValueError(
                f"exponents must lie in [1, {p - 1}] for copy {i}, got ({m}, {n})"
            )
        terms: dict[PBWMonomial, CycloNumber] = {}
        for j in range(1, min(m, n) + 1):
            scalar = (self.params.bracket_factorial(i, j)
                      * self.params.bracket_binom(i, m, j)
                      * self.params.bracket_binom(i, n, j))
            if j % 2 == 0:
                scalar = -scalar
            # product of weight lines, convolved exponent-wise
            kpoly: dict[int, CycloNumber] = {0: scalar}
            for t in range(j):
                line = self._weight_line(i, m - n + t)
                nxt: dict[int, CycloNumber] = {}
                for t1, w1 in kpoly.items():
                    for t2, w2 in line.items():
                        key = (t1 + t2) % self.korder
                        add = w1 * w2
                        val = nxt.get(key)
                        nxt[key] = add if val is None else val + add
                kpoly = nxt
            for t, w in kpoly.items():
                if w.is_zero():
                    continue
                if i == 1:
                    mono = PBWMonomial(m - j, 0, n - j, 0, t)
                else:
                    mono = PBWMonomial(0, m - j, 0, n - j, t)
                val = terms.get(mono)
                terms[mono] = w if val is None else val + w
        return self.element(terms)

    # ------------------------------------------------------------------
    # Hopf structure
    # ------------------------------------------------------------------

    def counit(self, x: "AlgebraElement") -> CycloNumber:
        """The counit: kills e_i and f_i, sends every K power to 1."""
        acc = self.params.zero
        for mono, coeff in x.terms.items():
            if mono.m1 == 0 and mono.m2 == 0 and mono.n1 == 0 and mono.n2 == 0:
                acc = acc + coeff
        return acc

    def _generator_coproducts(self):
        if self._gen_coproducts is None:
            one = PBWMonomial(0, 0, 0, 0, 0)
            e1 = PBWMonomial(1, 0, 0, 0, 0)
            e2 = PBWMonomial(0, 1, 0, 0, 0)
            f1 = PBWMonomial(0, 0, 1, 0, 0)
            f2 = PBWMonomial(0, 0, 0, 1, 0)
            kp2 = PBWMonomial(0, 0, 0, 0, self.p2 % self.korder)
            kp1 = PBWMonomial(0, 0, 0, 0, self.p1 % self.korder)
            kmp2 = PBWMonomial(0, 0, 0, 0, (-self.p2) % self.korder)
            kmp1 = PBWMonomial(0, 0, 0, 0, (-self.p1) % self.korder)
            one_c = self.params.one
            self._gen_coproducts = {
                "e1": TensorElement(self, {(e1, one): one_c, (kp2, e1): one_c}),
                "e2": TensorElement(self, {(e2, kp1): one_c, (one, e2): one_c}),
                "f1": TensorElement(self, {(f1, kmp2): one_c, (one, f1): one_c}),
                "f2": TensorElement(self, {(f2, one): one_c, (kmp1, f2): one_c}),
            }
        return self._gen_coproducts

    def coproduct_monomial(self, mono: PBWMonomial) -> "TensorElement":
        """The coproduct of a basis monomial, cached per monomial.

        Delta(K^ell) = K^ell (x) K^ell.  Any other monomial is g * rest,
        where g is its leftmost generator (e1, else e2, f1, f2), so
        Delta(mono) = Delta(g) * Delta(rest) with Delta(rest) taken from the
        cache: one tensor product per monomial.
        """
        cached = self._coproduct_cache.get(mono)
        if cached is not None:
            return cached
        m1, m2, n1, n2, ell = mono
        gens = self._generator_coproducts()
        delta = self.coproduct_monomial
        if m1:
            acc = gens["e1"] * delta(PBWMonomial(m1 - 1, m2, n1, n2, ell))
        elif m2:
            acc = gens["e2"] * delta(PBWMonomial(0, m2 - 1, n1, n2, ell))
        elif n1:
            acc = gens["f1"] * delta(PBWMonomial(0, 0, n1 - 1, n2, ell))
        elif n2:
            acc = gens["f2"] * delta(PBWMonomial(0, 0, 0, n2 - 1, ell))
        else:
            kl = PBWMonomial(0, 0, 0, 0, ell)
            acc = TensorElement(self, {(kl, kl): self.params.one})
        self._coproduct_cache[mono] = acc
        return acc

    def coproduct(self, x: "AlgebraElement") -> "TensorElement":
        out = TensorElement(self, {})
        for mono, coeff in x.terms.items():
            out = out + self.coproduct_monomial(mono) * coeff
        return out

    def coproduct_closed_form(self, mono: PBWMonomial,
                              variant: str = "corrected") -> "TensorElement":
        """The quadruple-sum closed form of the coproduct of a basis monomial.

        Two variants are provided because the transcribed source display of
        the copy-1 exponent contains index misprints:

        * "printed":   copy-1 exponent p2*(m1-r1) + p2*s1*(n1-r1) - 2*p2*s1*(m1-r1)
        * "corrected": copy-1 exponent p2*(r1*(m1-r1) + s1*(n1-s1) - 2*s1*(m1-r1))

        The copy-2 exponent p1*(r2*(m2-r2) + s2*(n2-s2) - 2*r2*(n2-s2)) is the
        same in both.  Ground truth is the multiplicative extension
        (`coproduct_monomial`); the tests grade both variants against it
        and nothing here alters either silently.
        """
        if variant not in ("printed", "corrected"):
            raise ValueError(f"unknown variant {variant!r}")
        p1, p2 = self.p1, self.p2
        m1, m2, n1, n2, ell = mono
        terms: dict[tuple[PBWMonomial, PBWMonomial], CycloNumber] = {}
        for r1 in range(m1 + 1):
            cb1 = self.params.bracket_binom(1, m1, r1)
            for s1 in range(n1 + 1):
                cb1s = cb1 * self.params.bracket_binom(1, n1, s1)
                if variant == "printed":
                    x1 = (p2 * (m1 - r1) + p2 * s1 * (n1 - r1)
                          - 2 * p2 * s1 * (m1 - r1))
                else:
                    x1 = p2 * (r1 * (m1 - r1) + s1 * (n1 - s1)
                               - 2 * s1 * (m1 - r1))
                for r2 in range(m2 + 1):
                    cb12 = cb1s * self.params.bracket_binom(2, m2, r2)
                    for s2 in range(n2 + 1):
                        scalar = cb12 * self.params.bracket_binom(2, n2, s2)
                        x2 = p1 * (r2 * (m2 - r2) + s2 * (n2 - s2)
                                   - 2 * r2 * (n2 - s2))
                        scalar = (scalar
                                  * self.params.q1_pow(x1)
                                  * self.params.q2_pow(x2))
                        if scalar.is_zero():
                            continue
                        left = PBWMonomial(
                            r1, r2, s1, s2,
                            (p2 * (m1 - r1) - p1 * (n2 - s2) + ell) % self.korder,
                        )
                        right = PBWMonomial(
                            m1 - r1, m2 - r2, n1 - s1, n2 - s2,
                            (p1 * r2 - p2 * s1 + ell) % self.korder,
                        )
                        key = (left, right)
                        val = terms.get(key)
                        terms[key] = scalar if val is None else val + scalar
        return TensorElement(self, {k: v for k, v in terms.items() if not v.is_zero()})

    def antipode_monomial(self, mono: PBWMonomial) -> "AlgebraElement":
        cached = self._antipode_cache.get(mono)
        if cached is not None:
            return cached
        p1, p2 = self.p1, self.p2
        # S reverses products: S(e1^m1 e2^m2 f1^n1 f2^n2 K^l)
        #   = K^-l S(f2)^n2 S(f1)^n1 S(e2)^m2 S(e1)^m1
        s_e1 = self.k_power(-p2) * self.generator("e1") * (-1)
        s_e2 = self.generator("e2") * self.k_power(-p1) * (-1)
        s_f1 = self.generator("f1") * self.k_power(p2) * (-1)
        s_f2 = self.k_power(p1) * self.generator("f2") * (-1)
        acc = self.k_power(-mono.ell)
        for img, count in ((s_f2, mono.n2), (s_f1, mono.n1),
                           (s_e2, mono.m2), (s_e1, mono.m1)):
            for _ in range(count):
                acc = acc * img
        self._antipode_cache[mono] = acc
        return acc

    def antipode(self, x: "AlgebraElement") -> "AlgebraElement":
        out = self.zero()
        for mono, coeff in x.terms.items():
            out = out + self.antipode_monomial(mono) * coeff
        return out

    # ------------------------------------------------------------------
    # Verification suites
    # ------------------------------------------------------------------

    def verify_defining_relations(self) -> list[Check]:
        """Check every defining relation, one report line each."""
        P = self.params
        checks: list[Check] = []
        K = self.generator("K")
        Kinv = self.generator("Kinv")
        one = self.one()

        def rel(name: str, lhs: "AlgebraElement", rhs: "AlgebraElement"):
            checks.append(Check(name, lhs == rhs, anchor="defining-relation"))

        rel("K*Kinv = 1", K * Kinv, one)
        rel("Kinv*K = 1", Kinv * K, one)
        kpow = one
        for _ in range(self.korder):
            kpow = kpow * K
        rel(f"K^{self.korder} = 1", kpow, one)
        for i in (1, 2):
            ei, fi = self.e(i), self.f(i)
            qi2 = P.qi_pow(i, 2)
            rel(f"K e{i} Kinv = q{i}^2 e{i}", K * ei * Kinv, ei * qi2)
            rel(f"K f{i} Kinv = q{i}^-2 f{i}", K * fi * Kinv, fi * P.qi_pow(i, -2))
            p = P.p(i)
            ei_top = self.e(i)
            fi_top = self.f(i)
            for _ in range(p - 1):
                ei_top = ei_top * ei
                fi_top = fi_top * fi
            rel(f"e{i}^{p} = 0", ei_top, self.zero())
            rel(f"f{i}^{p} = 0", fi_top, self.zero())
        e1, e2, f1, f2 = self.e(1), self.e(2), self.f(1), self.f(2)
        rel("e1 e2 = e2 e1", e1 * e2, e2 * e1)
        rel("f1 f2 = f2 f1", f1 * f2, f2 * f1)
        rel("[e1, f2] = 0", e1 * f2 - f2 * e1, self.zero())
        rel("[e2, f1] = 0", e2 * f1 - f1 * e2, self.zero())
        for i in (1, 2):
            pj = P.other(i)
            denom = P.qi_pow(i, pj) - P.qi_pow(i, -pj)
            rhs = (self.k_power(pj) - self.k_power(-pj)) * denom.inverse()
            ei, fi = self.e(i), self.f(i)
            rel(f"[e{i}, f{i}] = weight line", ei * fi - fi * ei, rhs)
        return checks

    def verify_hopf_axioms(self, sample_size: int = 0, seed: int = 0) -> list[Check]:
        """Coassociativity, counit and antipode axioms, S anti-morphism and
        S^2 = conjugation by K^(p1-p2).

        Exhaustive over the whole monomial basis when `exhaustive_scans`
        holds, otherwise over `sample_size` randomly chosen basis monomials
        (seeded).  The
        pair checks (coproduct/counit multiplicativity, anti-morphism) are
        always sampled.
        """
        P = self.params
        rng = random.Random(seed)
        checks: list[Check] = []
        basis = list(self.basis_monomials())
        if self.exhaustive_scans:
            sample = basis
            how = f"exhaustive on {len(basis)} basis monomials"
        else:
            size = sample_size if sample_size > 0 else 100
            sample = [basis[rng.randrange(len(basis))] for _ in range(size)]
            how = f"sampled {len(sample)} basis monomials (seed {seed})"

        one = self.one()
        g = self.balancing_element()
        ginv = self.k_power(-(self.p1 - self.p2))

        coassoc_fail = counit_fail = antipode_fail = square_fail = 0
        for mono in sample:
            delta = self.coproduct_monomial(mono)
            if delta.associate_left() != delta.associate_right():
                coassoc_fail += 1
            x = self.monomial_element(mono)
            if delta.apply_counit_left() != x or delta.apply_counit_right() != x:
                counit_fail += 1
            target = one * self.counit(x)
            if (delta.fold_antipode_left() != target
                    or delta.fold_antipode_right() != target):
                antipode_fail += 1
        for mono in basis:
            x = self.monomial_element(mono)
            if self.antipode(self.antipode(x)) != g * x * ginv:
                square_fail += 1

        checks.append(Check("coassociativity", coassoc_fail == 0,
                            f"{how}; failures: {coassoc_fail}",
                            anchor="hopf-coassociativity"))
        checks.append(Check("counit axiom", counit_fail == 0,
                            f"{how}; failures: {counit_fail}; "
                            "counit fixed to send K to 1 (the group-like "
                            "value; a unit-valued counit is forced by the axioms)",
                            anchor="hopf-counit"))
        checks.append(Check("antipode axiom", antipode_fail == 0,
                            f"{how}; failures: {antipode_fail}",
                            anchor="hopf-antipode"))
        checks.append(Check("antipode square is conjugation by K^(p1-p2)",
                            square_fail == 0,
                            f"exhaustive on {len(basis)} basis monomials; "
                            f"failures: {square_fail}",
                            anchor="antipode-square-conjugation"))

        # sampled pair checks
        pair_fail = 0
        anti_fail = 0
        counit_mult_fail = 0
        npairs = max(40, sample_size)
        for _ in range(npairs):
            u = basis[rng.randrange(len(basis))]
            v = basis[rng.randrange(len(basis))]
            xu, xv = self.monomial_element(u), self.monomial_element(v)
            prod = xu * xv
            if self.coproduct(prod) != self.coproduct_monomial(u) * self.coproduct_monomial(v):
                pair_fail += 1
            if self.antipode(prod) != self.antipode(xv) * self.antipode(xu):
                anti_fail += 1
            if self.counit(prod) != self.counit(xu) * self.counit(xv):
                counit_mult_fail += 1
        checks.append(Check("coproduct is an algebra map", pair_fail == 0,
                            f"{npairs} random monomial pairs; failures: {pair_fail}",
                            anchor="coproduct-multiplicative"))
        checks.append(Check("antipode is an anti-morphism", anti_fail == 0,
                            f"{npairs} random monomial pairs; failures: {anti_fail}",
                            anchor="antipode-antimorphism"))
        checks.append(Check("counit is multiplicative", counit_mult_fail == 0,
                            f"{npairs} random monomial pairs; failures: {counit_mult_fail}",
                            anchor="counit-multiplicative"))
        return checks


def _same_algebra(x, y) -> None:
    """Refuse to combine elements (or tensors) of two different pairs."""
    # for_pair builds a new Algebra per call, so equal pairs also pass
    if x.algebra is not y.algebra and x.algebra.params != y.algebra.params:
        raise ValueError(
            f"cannot combine elements of the algebras at "
            f"({x.algebra.p1}, {x.algebra.p2}) and "
            f"({y.algebra.p1}, {y.algebra.p2})")


class AlgebraElement:
    """A sparse element: dict from PBWMonomial to nonzero CycloNumber."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict[PBWMonomial, CycloNumber]):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: PBWMonomial) -> CycloNumber:
        return self.terms.get(mono, self.algebra.params.zero)

    def support(self) -> list[PBWMonomial]:
        return sorted(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def by_word(self) -> dict[tuple, dict[int, CycloNumber]]:
        """The element as {word: {ell: coeff}}, word = (m1, m2, n1, n2):
        a sum of K-free words each times a K-polynomial."""
        out: dict[tuple, dict[int, CycloNumber]] = {}
        for mono, c in self.terms.items():
            word = mono[:4]
            poly = out.get(word)
            if poly is None:
                out[word] = {mono[4]: c}
            else:
                poly[mono[4]] = c
        return out

    def _scalar(self, other) -> CycloNumber | None:
        if isinstance(other, CycloNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.params.rational(other)
        return None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_algebra(self, other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            val = out.get(mono)
            tot = coeff if val is None else val + coeff
            if tot.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = tot
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_algebra(self, other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            val = out.get(mono)
            tot = -coeff if val is None else val - coeff
            if tot.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = tot
        return AlgebraElement(self.algebra, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        scalar = self._scalar(other)
        if scalar is not None:
            if scalar.is_zero():
                return AlgebraElement(self.algebra, {})
            return AlgebraElement(
                self.algebra,
                {m: c * scalar for m, c in self.terms.items()},
            )
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_algebra(self, other)
        # word pair by word pair (see the module docstring): u P(K) * v Q(K)
        # = (u v) P(zeta^w K) Q(K); zeros are pruned once at the end
        alg = self.algebra
        korder = alg.korder
        zeta = alg._zeta
        N = alg._N
        ys = [(wv, alg.conjugation_weight_exponent(wv), Q)
              for wv, Q in other.by_word().items()]
        out: dict[PBWMonomial, CycloNumber] = {}
        for wu, P in self.by_word().items():
            twisted: dict[int, dict[int, CycloNumber]] = {0: P}
            for wv, tw, Q in ys:
                triples = alg._word_product(wu, wv)
                if not triples:
                    continue
                Pt = twisted.get(tw)
                if Pt is None:
                    Pt = {l: c * zeta[(l * tw) % N] for l, c in P.items()}
                    twisted[tw] = Pt
                conv: dict[int, CycloNumber] = {}
                for l, pl in Pt.items():
                    for m, qm in Q.items():
                        n = (l + m) % korder
                        add = pl * qm
                        val = conv.get(n)
                        conv[n] = add if val is None else val + add
                conv_items = [(n, r) for n, r in conv.items() if not r.is_zero()]
                for row, shift, coef in triples:
                    for n, r in conv_items:
                        mono = row[(shift + n) % korder]
                        add = coef * r
                        val = out.get(mono)
                        out[mono] = add if val is None else val + add
        return AlgebraElement(alg, {m: c for m, c in out.items() if not c.is_zero()})

    def __rmul__(self, other):
        scalar = self._scalar(other)
        if scalar is not None:
            return self.__mul__(scalar)
        return NotImplemented

    def __truediv__(self, other):
        scalar = self._scalar(other)
        if scalar is None:
            return NotImplemented
        inv = (scalar if isinstance(scalar, CycloNumber)
               else self.algebra.params.rational(scalar)).inverse()
        return self.__mul__(inv)

    def power(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined for general elements")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraElement):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms)[:6]:
            c = self.terms[mono]
            word = []
            for sym, exp in zip(("e1", "e2", "f1", "f2", "K"), mono):
                if exp:
                    word.append(f"{sym}^{exp}" if exp != 1 else sym)
            body = "*".join(word) if word else "1"
            bits.append(f"({c})*{body}")
        more = "" if len(self.terms) <= 6 else f" + ... ({len(self.terms)} terms)"
        return " + ".join(bits) + more


class TensorElement:
    """A sparse element of the two-fold tensor square, used for coproducts."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra,
                 terms: dict[tuple[PBWMonomial, PBWMonomial], CycloNumber]):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_algebra(self, other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            val = out.get(key)
            tot = coeff if val is None else val + coeff
            if tot.is_zero():
                out.pop(key, None)
            else:
                out[key] = tot
        return TensorElement(self.algebra, out)

    def __mul__(self, other):
        if isinstance(other, (CycloNumber, int, Fraction)):
            if not isinstance(other, CycloNumber):
                other = self.algebra.params.rational(other)
            if other.is_zero():
                return TensorElement(self.algebra, {})
            return TensorElement(
                self.algebra, {k: c * other for k, c in self.terms.items()}
            )
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_algebra(self, other)
        alg = self.algebra
        out: dict[tuple[PBWMonomial, PBWMonomial], CycloNumber] = {}
        for (a, b), c1 in self.terms.items():
            for (u, v), c2 in other.terms.items():
                c = c1 * c2
                left = alg.product_monomials(a, u)
                right = alg.product_monomials(b, v)
                for ml, wl in left.items():
                    cwl = c * wl
                    for mr, wr in right.items():
                        key = (ml, mr)
                        add = cwl * wr
                        val = out.get(key)
                        tot = add if val is None else val + add
                        if tot.is_zero():
                            out.pop(key, None)
                        else:
                            out[key] = tot
        return TensorElement(alg, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, TensorElement):
            return self.terms == other.terms
        return NotImplemented

    # -- Hopf-axiom helpers -------------------------------------------------

    def associate_left(self) -> dict:
        """(Delta tensor id) applied to self, as a triple-keyed dict."""
        alg = self.algebra
        out: dict[tuple, CycloNumber] = {}
        for (a, b), c in self.terms.items():
            for (u, v), w in alg.coproduct_monomial(a).terms.items():
                key = (u, v, b)
                add = c * w
                val = out.get(key)
                tot = add if val is None else val + add
                if tot.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = tot
        return out

    def associate_right(self) -> dict:
        """(id tensor Delta) applied to self, as a triple-keyed dict."""
        alg = self.algebra
        out: dict[tuple, CycloNumber] = {}
        for (a, b), c in self.terms.items():
            for (u, v), w in alg.coproduct_monomial(b).terms.items():
                key = (a, u, v)
                add = c * w
                val = out.get(key)
                tot = add if val is None else val + add
                if tot.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = tot
        return out

    def apply_counit_left(self) -> "AlgebraElement":
        alg = self.algebra
        out = alg.zero()
        for (a, b), c in self.terms.items():
            eps = alg.counit(alg.monomial_element(a))
            if not eps.is_zero():
                out = out + alg.monomial_element(b, c * eps)
        return out

    def apply_counit_right(self) -> "AlgebraElement":
        alg = self.algebra
        out = alg.zero()
        for (a, b), c in self.terms.items():
            eps = alg.counit(alg.monomial_element(b))
            if not eps.is_zero():
                out = out + alg.monomial_element(a, c * eps)
        return out

    def fold_antipode_left(self) -> "AlgebraElement":
        """m(S tensor id) applied to self."""
        alg = self.algebra
        out = alg.zero()
        for (a, b), c in self.terms.items():
            out = out + alg.antipode_monomial(a) * alg.monomial_element(b) * c
        return out

    def fold_antipode_right(self) -> "AlgebraElement":
        """m(id tensor S) applied to self."""
        alg = self.algebra
        out = alg.zero()
        for (a, b), c in self.terms.items():
            out = out + alg.monomial_element(a) * alg.antipode_monomial(b) * c
        return out

    def __repr__(self) -> str:
        return f"TensorElement({len(self.terms)} terms)"
