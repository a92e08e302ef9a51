"""The algebra attached to a coprime pair (p1, p2) and its Hopf structure.

Presentation.  Generators e1, e2, f1, f2, K, K^-1 with
    K K^-1 = 1,   K^(2 p1 p2) = 1,   e_i^(p_i) = f_i^(p_i) = 0,
    K e_i K^-1 = q_i^2 e_i,   K f_i K^-1 = q_i^-2 f_i,
    e1 e2 = e2 e1,   f1 f2 = f2 f1,   [e_i, f_j] = 0 for i != j,
    [e1, f1] = (K^p2 - K^-p2)/(q1^p2 - q1^-p2),
    [e2, f2] = (K^p1 - K^-p1)/(q2^p1 - q2^-p1).

Two bases.  The PBW basis is

    e1^m1 e2^m2 f1^n1 f2^n2 K^ell,
    0 <= m_i, n_i <= p_i - 1,   0 <= ell < korder = 2 p1 p2,

of size 2 p1^3 p2^3.  Elements are stored in the projector basis

    e1^m1 e2^m2 f1^n1 f2^n2 1_j,   0 <= j < korder,

where 1_j = (1/korder) sum_l zeta^(-2jl) K^l projects onto the eigenvalue
lambda_j = zeta^(2j) of K (zeta = zeta_N, N = 2 korder).  An
AlgebraElement maps (m1, m2, n1, n2, j) to the nonzero coefficient of
w 1_j.  If the element is sum_w w P_w(K) in the PBW basis, that
coefficient is P_w(lambda_j): a weight averager sum_l rho^l K^l is the one
term korder 1_j with lambda_j = rho^-1.  Both bases are indexed by the same
arithmetic (`monomial_index`), so a span built over either has the same
rank and coordinates.

The PBW boundary.  `Algebra.element` takes PBW terms and
`AlgebraElement.pbw_terms` gives them back: one exact discrete Fourier
transform per word, accumulated on integer exponent vectors and reduced
mod Phi_N once per coefficient within the period of the word's
K-exponents (`CycloField.fold`; a K-free word folds once).  A sum whose
integers are all zero is not folded, and equal sums are folded once per
transform: a primitive idempotent is dense in PBW form (every K-exponent
of each word) but has one projector term per word, so most of its sums
are zero vectors.  `Algebra.element` takes int and Fraction
coefficients besides field elements, and refuses a float, string or
Decimal with TypeError rather than read it as a binary rational.  A single
monomial needs no transform: K^ell = sum_j lambda_j^ell 1_j, so
`monomial_element` writes c w K^ell as sum_j c zeta^(2 j ell) w 1_j, one
period of products c zeta^k, and so do `generator`, `e`, `f`, `k_power`
and `one`.  The PBW basis stays the external one: `monomial_index` of
the functionals, the JSON dumps, `product_monomials`, `TensorElement`
(coproducts) and the closed-form commutator and coproduct oracles.  A
basis monomial w K^ell is dense in projector form (korder terms), so the
Hopf operations on basis monomials (antipode, counit and the axiom
checks) work on PBW term dicts (`pbw_product`, `pbw_antipode`,
`pbw_counit`, `pbw_coproduct`) and never multiply monomial elements.
Tensor products build the coproducts of the K-free words only, one per
word; Delta(w K^ell) is Delta(w) with both K-exponents of every term
raised by ell (`coproduct_monomial`).

Hopf structure by presentation.  Delta, S and eps are given on the
generators and extended letter by letter (`coproduct_monomial`,
`antipode_monomial`, `pbw_counit`).  `defining_relations` states the 17
relations above once, and `casimir` the central quadratic element of
each copy, over a `RelationTarget` (generator images, K^t and the
target's arithmetic).  The relations suite evaluates the relations in A;
`verify_hopf_axioms` evaluates them on the images of Delta in A (x) A, of
S in A^op and of eps in Q(zeta_N), which proves that the extensions are
(anti-)algebra maps on all of A (the proof is in its docstring).  The
simple modules evaluate both on their generator matrices
(`modules.verify_simple_module`), and the blocks suite reads the Casimirs
in A.

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
`_word_product` expands the product of two K-free words once, as
(word, K-shift, coefficient) triples, memoised per algebra.  PBW products
read it directly: with t_v the weight of w_v (K w_v = zeta^(t_v) w_v K),
(w_u K^l)(w_v K^m) = zeta^(l t_v) sum coef word K^(shift + l + m).
`product_monomials` is the single-term case; `pbw_product` and
`TensorElement.__mul__` fold the twist of each term pair (both tensor
factors' twists in one zeta index) into one coefficient before walking the
triples.

Products are pointwise in j.  Let t_v be the weight of the word w_v
(K w_v = zeta^(t_v) w_v K).  Then 1_a w_v = w_v 1_(a - t_v/2), so
(w_u 1_a)(w_v 1_b) vanishes unless a = b + t_v/2 (mod korder), and
otherwise equals sum coef lambda_b^s word 1_b over the triples
(word, s, coef) of w_u w_v.  `Algebra.meeting_index` states the rule
once.  `AlgebraElement.__mul__` indexes the right factor's terms (w_v, b)
by the left index a they meet, then walks the left factor's terms
against that index, so a left term costs one lookup and only the pairs
that meet are multiplied.
In the verifier the right factor is the small one: most products are a
generator or prefix word (korder terms) times a named element of one or
two terms.

Evaluated rows.  Grouped by output word, a meeting pair contributes
V_word(b) word 1_b with V_word(b) = sum_s coef_s zeta^(2 b s).  zeta^2
has order korder, so V depends on b only mod P = korder / gcd(korder,
every shift s of the word pair): if b' = b + P, then 2 b' s - 2 b s =
2 P s, and g = gcd(korder, shifts) divides s, so P s is a multiple of
P g = korder and zeta^(2 P s) = 1.  P = 1 when every shift is 0, and P
divides korder.  The memo entry of a word pair therefore holds, beside
its triples, P and one row per residue r = b mod P, built on first use
(`Algebra._pair_row`): (projector keys of the word, V_word(r)) per output
word, zero values dropped.  `__mul__` reads the row of b mod P and makes
one field multiply per output word, (c_u c_v) * V, at key word 1_b, and
tests for zero only the keys that got two or more contributions (the
prune rule in its docstring).  `Functionals.radford_transform` reads the
same rows against the left integral in the projector basis.  Per
verify-2-3 benchmark pass this took field multiplies from 38,273 to
26,668 and `CycloField.make` calls from 8,828 to 4,974, for the same
3,080 element products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Union

from .cyclo import CycloNumber, Params
from .report import Check

__all__ = ["Algebra", "AlgebraElement", "PBWMonomial", "RelationTarget",
           "TensorElement", "casimir", "defining_relations"]

Scalar = Union[int, Fraction, CycloNumber]
Terms = dict  # PBW terms: {PBWMonomial: nonzero CycloNumber}


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

    def __str__(self) -> str:
        """The monomial as a word, e.g. ``e1 f2^2 K^4``; ``1`` for the unit."""
        parts = [f"{sym}^{exp}" if exp != 1 else sym
                 for sym, exp in zip(("e1", "e2", "f1", "f2", "K"), self) if exp]
        return " ".join(parts) or "1"


class RelationTarget(NamedTuple):
    """An algebra in which `defining_relations` and `casimir` evaluate the
    presentation: the images of e1, e2, f1 and f2, the image of K^t for
    every integer t, the target's one and zero, and its product, sum and
    scalar multiple (Python's ``*``, ``+`` and ``*`` unless given).
    Values compare with ``==``."""

    images: Mapping[str, Any]
    k_power: Callable[[int], Any]
    one: Any
    zero: Any
    mul: Callable[[Any, Any], Any] = operator.mul
    add: Callable[[Any, Any], Any] = operator.add
    scale: Callable[[Any, CycloNumber], Any] = operator.mul


def defining_relations(params: Params,
                       target: RelationTarget) -> list[tuple[str, bool]]:
    """(name, holds) for each of the 17 defining relations, evaluated
    on the generator images of ``target`` with its arithmetic.

    The one list of the presentation: the relations suite reads it in A,
    the premises of `Algebra.verify_hopf_axioms` read it on the images of
    Delta, S and eps, and `modules.verify_simple_module` reads it on the
    generator matrices of each simple module.  The generator K^-1 is read
    as ``target.k_power(-1)``.
    """
    mul, add, scale = target.mul, target.add, target.scale
    one, zero, k_power = target.one, target.zero, target.k_power
    minus = params.field.minus_one
    K, Kinv = k_power(1), k_power(-1)
    e = {i: target.images[f"e{i}"] for i in (1, 2)}
    f = {i: target.images[f"f{i}"] for i in (1, 2)}
    out: list[tuple[str, bool]] = []

    def rel(name: str, lhs, rhs) -> None:
        out.append((name, lhs == rhs))

    def bracket(x, y):
        return add(mul(x, y), scale(mul(y, x), minus))

    rel("K*Kinv = 1", mul(K, Kinv), one)
    rel("Kinv*K = 1", mul(Kinv, K), one)
    kpow = one
    for _ in range(params.korder):
        kpow = mul(kpow, K)
    rel(f"K^{params.korder} = 1", kpow, one)
    for i in (1, 2):
        ei, fi = e[i], f[i]
        rel(f"K e{i} Kinv = q{i}^2 e{i}", mul(mul(K, ei), Kinv),
            scale(ei, params.qi_pow(i, 2)))
        rel(f"K f{i} Kinv = q{i}^-2 f{i}", mul(mul(K, fi), Kinv),
            scale(fi, params.qi_pow(i, -2)))
        p = params.p(i)
        ei_top, fi_top = ei, fi
        for _ in range(p - 1):
            ei_top = mul(ei_top, ei)
            fi_top = mul(fi_top, fi)
        rel(f"e{i}^{p} = 0", ei_top, zero)
        rel(f"f{i}^{p} = 0", fi_top, zero)
    rel("e1 e2 = e2 e1", mul(e[1], e[2]), mul(e[2], e[1]))
    rel("f1 f2 = f2 f1", mul(f[1], f[2]), mul(f[2], f[1]))
    rel("[e1, f2] = 0", bracket(e[1], f[2]), zero)
    rel("[e2, f1] = 0", bracket(e[2], f[1]), zero)
    for i in (1, 2):
        pj = params.other(i)
        denom = params.qi_pow(i, pj) - params.qi_pow(i, -pj)
        line = add(k_power(pj), scale(k_power(-pj), minus))
        rel(f"[e{i}, f{i}] = weight line", bracket(e[i], f[i]),
            scale(line, denom.inverse()))
    return out


def casimir(params: Params, i: int, target: RelationTarget):
    """The central quadratic element of copy i, evaluated in ``target``:

        C_i = -a K^-p_j - a^-1 K^p_j - (a - a^-1)^2 e_i f_i,   a = q_i^p_j,

    with p_j the complementary exponent.  The one Casimir formula: the
    blocks suite reads it in A and on each projective summand's generator
    matrices, and `modules.verify_simple_module` on each simple module's.
    """
    pj = params.other(i)
    a = params.qi_pow(i, pj)
    gap = a - a.inverse()
    ef = target.mul(target.images[f"e{i}"], target.images[f"f{i}"])
    return target.add(
        target.add(target.scale(target.k_power(-pj), -a),
                   target.scale(target.k_power(pj), -a.inverse())),
        target.scale(ef, -(gap * gap)))


# e1, e2, f1, f2 and K generate the algebra as a monoid: K^-1 = K^(korder-1)
GENERATOR_MONOMIALS = (PBWMonomial(1, 0, 0, 0, 0), PBWMonomial(0, 1, 0, 0, 0),
                       PBWMonomial(0, 0, 1, 0, 0), PBWMonomial(0, 0, 0, 1, 0),
                       PBWMonomial(0, 0, 0, 0, 1))
_UNIT_WORD = (0, 0, 0, 0)


def _accumulate(out: dict, terms: Mapping, scale: CycloNumber) -> None:
    """out += scale * terms, in place; zeros are left for the caller."""
    for key, c in terms.items():
        add = scale * c
        val = out.get(key)
        out[key] = add if val is None else val + add


def _pruned(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if not c.is_zero()}


def _peel(mono: PBWMonomial) -> tuple[str, PBWMonomial] | None:
    """(g, rest) with mono = g * rest, g the leftmost generator (e1, else
    e2, f1, f2); None for a power of K."""
    for pos, name in enumerate(("e1", "e2", "f1", "f2")):
        if mono[pos]:
            return name, PBWMonomial(*mono[:pos], mono[pos] - 1, *mono[pos + 1:])
    return None


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
        # the fused rewrite entries, built per (b1, c1, b2, c2) on first use
        self._fuse: dict[tuple, tuple] = {}
        # word pair -> (triples, period P, rows by residue mod P)
        self._word_products: dict[tuple, tuple] = {}
        self._word_rows: dict[tuple, tuple] = {}
        # one object per distinct row value (`_pair_row`)
        self._row_values: dict[CycloNumber, CycloNumber] = {}
        self._coproduct_cache: dict[PBWMonomial, TensorElement] = {}
        self._antipode_cache: dict[PBWMonomial, Terms] = {}
        self._gen_coproducts = None
        self._gen_antipodes = None
        # work counters, read per suite into the JSON report
        self.element_products = 0
        self.word_product_rows = 0

    @classmethod
    def for_pair(cls, p1: int, p2: int) -> "Algebra":
        return cls(Params(p1, p2))

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

    def word_index(self, word: tuple) -> int:
        """Index of the K-free word (m1, m2, n1, n2) in basis order."""
        m1, m2, n1, n2 = word[:4]
        return ((m1 * self.p2 + m2) * self.p1 + n1) * self.p2 + n2

    def monomial_index(self, m: tuple) -> int:
        """Index of a PBW monomial in basis order; the same arithmetic
        indexes a projector term (m1, m2, n1, n2, j)."""
        return self.word_index(m) * self.korder + m[4]

    # ------------------------------------------------------------------
    # Element constructors and the change of basis
    # ------------------------------------------------------------------

    def element(self, terms: Mapping[tuple, Scalar]) -> "AlgebraElement":
        """The element sum c * e1^m1 e2^m2 f1^n1 f2^n2 K^ell of PBW terms.

        Keys go through `monomial`, so ell is taken mod 2*p1*p2 and keys
        equal mod 2*p1*p2 add up.  A coefficient is a field element, an
        int or a Fraction; one from another cyclotomic field raises
        ValueError, any other type TypeError.
        """
        polys: dict[tuple, dict[int, CycloNumber]] = {}
        for mono, coeff in terms.items():
            mono = self.monomial(*mono)
            coeff = self._coefficient(mono, coeff)
            poly = polys.setdefault(mono[:4], {})
            ell = mono[4]
            val = poly.get(ell)
            poly[ell] = coeff if val is None else val + coeff
        return AlgebraElement(self, {word + (j,): c for word, j, c
                                     in self._fourier(polys, 1, 1)})

    def _coefficient(self, mono: PBWMonomial, coeff: Scalar) -> CycloNumber:
        """A PBW coefficient as a field element; one from another
        cyclotomic field raises ValueError naming the monomial."""
        if not isinstance(coeff, CycloNumber):
            return self.params.rational(coeff)
        if coeff.field.order != self.field.order:
            raise ValueError(
                f"coefficient of {mono} lies in Q(zeta_{coeff.field.order}), "
                f"not in the field Q(zeta_{self.field.order}) of the algebra")
        return coeff

    def _fourier(self, polys: Mapping[tuple, Mapping[int, CycloNumber]],
                 sign: int, scale: int) -> Iterator[tuple]:
        """(word, t, sum_s poly[s] * zeta^(2 sign s t) / scale) per word.

        t runs over 0 .. korder - 1 and zero values are skipped.  sign 1,
        scale 1 maps PBW coefficients (s = ell) to projector ones (t = j);
        sign -1, scale korder maps them back.  Each value is summed as an
        integer exponent vector over a common denominator and reduced mod
        Phi_N once, so the transform is exact and costs no field products.

        zeta^(2st) depends on t only through st mod korder, so a word's
        values repeat with period korder / gcd(korder, its exponents s):
        they are summed for t below the period and then repeated.  A
        K-free word (s = 0 only) folds once.  An s with a zero coefficient
        still counts, which can only lengthen the period to a multiple.

        Only distinct nonzero sums are folded.  A vector whose integers
        are all zero is the zero value with no fold; a word dense in one
        basis and sparse in the other (a primitive idempotent's PBW
        words) gives mostly such vectors.  Equal (vector, denominator)
        pairs fold to equal values, so each is folded once per call.
        """
        N = self._N
        korder = self.korder
        fold = self.field.fold
        folded: dict[tuple, CycloNumber | None] = {}
        for word, poly in polys.items():
            den = math.lcm(*(c.den for c in poly.values()))
            parts = [(2 * sign * s,
                      [(i, a * (den // c.den)) for i, a in enumerate(c.num) if a])
                     for s, c in poly.items() if not c.is_zero()]
            if not parts:
                continue
            den *= scale
            period = korder // math.gcd(korder, *poly)
            values = []
            for t in range(period):
                vec = [0] * N
                for step, nonzero in parts:
                    shift = step * t
                    for i, a in nonzero:
                        vec[(i + shift) % N] += a
                if not any(vec):
                    values.append(None)
                    continue
                key = (*vec, den)
                if key not in folded:
                    value = fold(vec, den)
                    folded[key] = None if value.is_zero() else value
                values.append(folded[key])
            for t in range(korder):
                value = values[t % period]
                if value is not None:
                    yield word, t, value

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.monomial_element(PBWMonomial(0, 0, 0, 0, 0))

    def monomial_element(self, mono: PBWMonomial, coeff: Scalar = 1) -> "AlgebraElement":
        """c * w K^ell in closed form: K^ell = sum_j lambda_j^ell 1_j, so
        the element is sum_j c zeta^(2 j ell) w 1_j, with no transform.

        Validated as in `element`: ell is taken mod 2*p1*p2, other
        exponents out of range and a coefficient from another field raise
        ValueError.  c = 0 gives the zero element.  The values repeat with
        period korder / gcd(korder, ell), so only one period is multiplied.
        """
        mono = self.monomial(*mono)
        coeff = self._coefficient(mono, coeff)
        if coeff.is_zero():
            return self.zero()
        ell, korder, zeta, N = mono[4], self.korder, self._zeta, self._N
        period = korder // math.gcd(korder, ell)
        values = [coeff * zeta[(2 * j * ell) % N] for j in range(period)]
        keys = self._word_row(mono[:4])[0]
        return AlgebraElement(self, {keys[j]: values[j % period]
                                     for j in range(korder)})

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
            raise ValueError(f"unknown generator {name!r}; expected one of {tuple(shapes)}")
        return self.monomial_element(PBWMonomial(*shapes[name]))

    def e(self, i: int) -> "AlgebraElement":
        return self.generator("e1" if i == 1 else "e2")

    def f(self, i: int) -> "AlgebraElement":
        return self.generator("f1" if i == 1 else "f2")

    def k_power(self, t: int) -> "AlgebraElement":
        """K^t for any integer t."""
        return self.monomial_element(PBWMonomial(0, 0, 0, 0, t % self.korder))

    def conjugation_weight_exponent(self, mono: tuple) -> int:
        """zeta-exponent of the scalar in K x K^-1 = zeta^w x for a monomial
        x, or for a K-free word (m1, m2, n1, n2)."""
        m1, m2, n1, n2 = mono[:4]
        return (4 * self.p2 * (m1 - n1) + 4 * self.p1 * (m2 - n2)) % self._N

    def meeting_index(self, key: tuple) -> int:
        """The index a at which the projector term w_v 1_b = key meets a
        left factor: (w_u 1_a)(w_v 1_b) = (w_u w_v) 1_b exactly when a =
        b + t_v/2 (mod korder), and 0 at every other a (the module
        docstring's pointwise rule).  t_v/2 is half of
        `conjugation_weight_exponent`, 2 p2 (m1 - n1) + 2 p1 (m2 - n2)."""
        m1, m2, n1, n2, b = key
        return (b + 2 * self.p2 * (m1 - n1) + 2 * self.p1 * (m2 - n2)
                ) % self.korder

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

    def _fused(self, key: tuple) -> tuple:
        """The two per-copy tables combined for key = (b1, c1, b2, c2),
        as a flat tuple of (j1, j2, t1, t2, coeff), built on the key's
        first use and memoised: a pass reads only some of the p1^2 p2^2
        keys, and far more word pairs than keys."""
        fused = self._fuse.get(key)
        if fused is None:
            b1, c1, b2, c2 = key
            fused = self._fuse[key] = tuple(
                (j1, j2, t1, t2, w1 * w2)
                for j1, kp1 in self._fe1[(b1, c1)].items()
                for j2, kp2 in self._fe2[(b2, c2)].items()
                for t1, w1 in kp1.items()
                for t2, w2 in kp2.items())
        return fused

    def _word_product(self, wu: tuple, wv: tuple) -> tuple:
        """Normal-ordered expansion of the product of two K-free words.

        ``wu`` and ``wv`` are exponent tuples (m1, m2, n1, n2) of
        e1^m1 e2^m2 f1^n1 f2^n2.  The product is returned as a tuple of
        (keys, monos, shift, coeff) meaning
        wu * wv = sum coeff * word * K^shift, where ``keys`` and ``monos``
        list the word's projector keys and PBW monomials indexed by j and
        by K-exponent.  The PBW readers (`product_monomials`,
        `pbw_product`, `TensorElement.__mul__`) walk these triples;
        `AlgebraElement.__mul__` and `Functionals.radford_transform` read
        the evaluated rows of the same memo entry (`_word_pair`,
        `_pair_row`).
        """
        return self._word_pair(wu, wv)[0]

    def _word_pair(self, wu: tuple, wv: tuple) -> tuple:
        """The memo entry of a word pair: (triples, P, rows).

        ``triples`` is `_word_product`'s expansion, P = korder /
        gcd(korder, every shift of the triples) the period in b of the
        evaluated values (the module docstring's "Evaluated rows"), and
        ``rows`` a list of P slots, row r filled by `_pair_row` on the
        first product that meets the pair at an index b = r mod P.  One
        entry per word pair, at most (p1 p2)^4 of them, so at most
        korder rows per pair and never one per (pair, b).
        """
        key = (wu, wv)
        entry = self._word_products.get(key)
        if entry is not None:
            return entry
        a1, a2, b1, b2 = wu
        c1, c2, d1, d2 = wv
        p1, p2 = self.p1, self.p2
        korder = self.korder
        zeta = self._zeta
        N = self._N
        acc: dict[tuple, CycloNumber] = {}
        for j1, j2, t1, t2, coef in self._fused((b1, c1, b2, c2)):
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
        triples = tuple(self._word_row(word) + (shift, c)
                        for (word, shift), c in acc.items() if not c.is_zero())
        period = korder // math.gcd(korder, *(t[2] for t in triples))
        entry = self._word_products[key] = (triples, period, [None] * period)
        return entry

    def _pair_row(self, entry: tuple, r: int) -> tuple:
        """Row r of a `_word_pair` entry, built once and stored in it:
        ((keys, V) per output word), V = sum_s coef_s zeta^(2 r s) over
        the word's shifts, zero values dropped.  It is the row of every
        meeting index b = r mod P (the module docstring's "Evaluated
        rows"); the word's key at b is keys[b].

        Equal values share one object (`_row_values`): rows repeat a few
        values many times, for instance 23,601 new values of 116 distinct
        ones in the rows of a `--suite all` run at (9,2), and sharing
        them took that run's peak RSS from 128.9 to 121.2 MiB."""
        zeta, N = self._zeta, self._N
        sums: dict[tuple, list] = {}
        for keys, _, s, coef in entry[0]:
            add = coef * zeta[(2 * r * s) % N]
            cur = sums.get(keys[0])
            if cur is None:
                sums[keys[0]] = [keys, add]
            else:
                cur[1] = cur[1] + add
        shared = self._row_values
        row = entry[2][r] = tuple((keys, shared.setdefault(value, value))
                                  for keys, value in sums.values()
                                  if not value.is_zero())
        self.word_product_rows += 1
        return row

    def _word_row(self, word: tuple) -> tuple:
        """(word 1_j for each j, word K^ell for each ell) as key tuples."""
        row = self._word_rows.get(word)
        if row is None:
            row = (tuple(word + (j,) for j in range(self.korder)),
                   tuple(PBWMonomial(*word, ell) for ell in range(self.korder)))
            self._word_rows[word] = row
        return row

    def product_monomials(self, u: PBWMonomial, v: PBWMonomial) -> dict[PBWMonomial, CycloNumber]:
        """Structure constants: the normal-ordered expansion of u * v.

        The single-term PBW case of the word product: K^l crosses v's word
        as zeta^(l * weight), then the word product is shifted by l + m.
        """
        l, m = u[4], v[4]
        twist = self._zeta[(l * self.conjugation_weight_exponent(v)) % self._N]
        korder = self.korder
        return {monos[(shift + l + m) % korder]: c * twist
                for _, monos, shift, c in self._word_product(u[:4], v[:4])}

    def pbw_product(self, x: Mapping[PBWMonomial, CycloNumber],
                    y: Mapping[PBWMonomial, CycloNumber]) -> Terms:
        """The product of two PBW term dicts, read off the word products
        term pair by term pair as in `product_monomials`."""
        korder, zeta, N = self.korder, self._zeta, self._N
        rhs = [(v[:4], v[4], self.conjugation_weight_exponent(v), cv)
               for v, cv in y.items()]
        out: Terms = {}
        for u, cu in x.items():
            wu, l = u[:4], u[4]
            for wv, m, weight, cv in rhs:
                c = cu * cv * zeta[(l * weight) % N]
                for _, monos, shift, coef in self._word_product(wu, wv):
                    key = monos[(shift + l + m) % korder]
                    add = c * coef
                    val = out.get(key)
                    out[key] = add if val is None else val + add
        return _pruned(out)

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
        """The counit: kills e_i and f_i and sends K to 1, so it sends
        w 1_j to 1 when w = 1 and j = 0, and to 0 otherwise."""
        return x.terms.get(_UNIT_WORD + (0,), self.params.zero)

    def pbw_counit(self, terms: Mapping[PBWMonomial, CycloNumber]) -> CycloNumber:
        """The counit of PBW terms: the sum of the coefficients of K powers."""
        acc = self.params.zero
        for mono, coeff in terms.items():
            if mono[:4] == _UNIT_WORD:
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

        A K-free word w other than 1 is g * rest, where g is its leftmost
        generator (e1, else e2, f1, f2), so Delta(w) = Delta(g) * Delta(rest)
        with Delta(rest) taken from the cache: one tensor product per K-free
        word, (p1 p2)^2 - 1 in all.  A monomial w K^ell with ell != 0 takes
        no product: Delta is multiplicative and Delta(K^ell) = K^ell (x)
        K^ell, so

            Delta(w K^ell) = sum c u K^(a + ell) (x) v K^(b + ell)
            over the terms c u K^a (x) v K^b of Delta(w),

        K^ell multiplying each factor on the right, where it meets a K-power
        and no e/f word to twist past.  The integral solve
        (`Functionals.integral_functional`) shifts equation indices by the
        same identity.
        """
        cached = self._coproduct_cache.get(mono)
        if cached is not None:
            return cached
        ell = mono[4]
        if ell:
            korder = self.korder
            row = self._word_row
            acc = TensorElement(self, {
                (row(u[:4])[1][(u[4] + ell) % korder],
                 row(v[:4])[1][(v[4] + ell) % korder]): c
                for (u, v), c in self.coproduct_monomial(
                    PBWMonomial(*mono[:4], 0)).terms.items()})
        else:
            peeled = _peel(mono)
            if peeled is None:
                acc = TensorElement(self, {(mono, mono): self.params.one})
            else:
                gen, rest = peeled
                acc = (self._generator_coproducts()[gen]
                       * self.coproduct_monomial(rest))
        self._coproduct_cache[mono] = acc
        return acc

    def coproduct(self, x: "AlgebraElement") -> "TensorElement":
        return self.pbw_coproduct(x.pbw_terms())

    def pbw_coproduct(self, terms: Mapping[PBWMonomial, CycloNumber]) -> "TensorElement":
        out: dict = {}
        for mono, coeff in terms.items():
            _accumulate(out, self.coproduct_monomial(mono).terms, coeff)
        return TensorElement(self, _pruned(out))

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

    def _generator_antipodes(self):
        if self._gen_antipodes is None:
            korder = self.korder
            plus, minus = self.params.one, self.field.minus_one

            def k(t: int) -> PBWMonomial:
                return PBWMonomial(0, 0, 0, 0, t % korder)

            prod = self.pbw_product
            self._gen_antipodes = {
                "e1": prod({k(-self.p2): minus}, {PBWMonomial(1, 0, 0, 0, 0): plus}),
                "e2": prod({PBWMonomial(0, 1, 0, 0, 0): minus}, {k(-self.p1): plus}),
                "f1": prod({PBWMonomial(0, 0, 1, 0, 0): minus}, {k(self.p2): plus}),
                "f2": prod({k(self.p1): minus}, {PBWMonomial(0, 0, 0, 1, 0): plus}),
            }
        return self._gen_antipodes

    def antipode_monomial(self, mono: PBWMonomial) -> Terms:
        """S of a basis monomial as PBW terms, cached per monomial; the
        returned dict is shared, so callers only read it.

        S(K^ell) = K^-ell.  Any other monomial is g * rest, where g is its
        leftmost generator (e1, else e2, f1, f2), and S reverses products,
        so S(mono) = S(rest) * S(g) with S(rest) taken from the cache: one
        product per monomial.
        """
        cached = self._antipode_cache.get(mono)
        if cached is not None:
            return cached
        peeled = _peel(mono)
        if peeled is None:
            acc = {PBWMonomial(0, 0, 0, 0, -mono[4] % self.korder):
                   self.params.one}
        else:
            gen, rest = peeled
            acc = self.pbw_product(self.antipode_monomial(rest),
                                   self._generator_antipodes()[gen])
        self._antipode_cache[mono] = acc
        return acc

    def pbw_antipode(self, terms: Mapping[PBWMonomial, CycloNumber]) -> Terms:
        out: Terms = {}
        for mono, coeff in terms.items():
            _accumulate(out, self.antipode_monomial(mono), coeff)
        return _pruned(out)

    def antipode(self, x: "AlgebraElement") -> "AlgebraElement":
        return self.element(self.pbw_antipode(x.pbw_terms()))

    # ------------------------------------------------------------------
    # Verification suites
    # ------------------------------------------------------------------

    def relation_target(self) -> "RelationTarget":
        """A itself: the generators and element arithmetic."""
        return RelationTarget(
            images={name: self.generator(name) for name in ("e1", "e2", "f1", "f2")},
            k_power=self.k_power, one=self.one(), zero=self.zero())

    def _hopf_targets(self) -> dict[str, tuple["RelationTarget", str]]:
        """The targets of Delta (A (x) A), S (A^op) and eps (Q(zeta_N)):
        each map's images of e1, e2, f1, f2 and of K^t, keyed by premise."""
        one = self.params.one
        unit = PBWMonomial(0, 0, 0, 0, 0)

        def k(t: int) -> PBWMonomial:
            return PBWMonomial(0, 0, 0, 0, t % self.korder)

        def pbw_add(x: Terms, y: Terms) -> Terms:
            out = dict(x)
            _accumulate(out, y, one)
            return _pruned(out)

        return {
            "coproduct": (RelationTarget(
                images=self._generator_coproducts(),
                k_power=lambda t: self.coproduct_monomial(k(t)),
                one=TensorElement(self, {(unit, unit): one}),
                zero=TensorElement(self, {})), "A ⊗ A"),
            "anti": (RelationTarget(
                images=self._generator_antipodes(),
                k_power=lambda t: self.antipode_monomial(k(t)),
                one={unit: one}, zero={},
                mul=lambda x, y: self.pbw_product(y, x), add=pbw_add,
                scale=lambda x, c: _pruned({m: v * c for m, v in x.items()})),
                "A^op"),
            "counit-mult": (RelationTarget(
                images={name: self.pbw_counit({mono: one}) for name, mono
                        in zip(("e1", "e2", "f1", "f2"), GENERATOR_MONOMIALS[:4])},
                k_power=lambda t: self.pbw_counit({k(t): one}),
                one=one, zero=self.params.zero), f"Q(zeta_{self._N})"),
        }

    def verify_defining_relations(self) -> list[Check]:
        """Check every defining relation in A, one report line each."""
        scope = (f"in A: both sides normal-ordered over the "
                 f"{self.dimension} basis monomials")
        return [Check(name, holds, anchor="defining-relation", scope=scope)
                for name, holds
                in defining_relations(self.params, self.relation_target())]

    def verify_hopf_axioms(self) -> list[Check]:
        """The Hopf axioms on the whole algebra, from the presentation.

        Delta, S and eps are given on generators, and a map given on
        generators extends to an algebra map exactly when its generator
        images satisfy the defining relations.  The three premise checks
        evaluate the 17 relations (`defining_relations`) on the images of
        Delta in A (x) A, of S in A^op and of eps in Q(zeta_N).  Why this
        proves Delta and eps multiplicative and S anti-multiplicative on
        all of A, as the product engine computes them:

        * the rewrites that yield PBW normal form use only the relations,
          so the PBW monomials span the algebra P presented by them;
        * A satisfies the relations (checked again here, in A itself),
          so the generators induce a surjection P -> A;
        * the monomials are independent in A (criterion 01), so the
          surjection is an isomorphism and A is presented by the relations;
        * `coproduct_monomial` and `antipode_monomial` multiply the
          generator images in letter order, with Delta(w K^ell) =
          Delta(w)(K^ell (x) K^ell) and S(w K^ell) = K^-ell S(w), and
          `pbw_counit` sends w K^ell to 1 if w = 1 and to 0 otherwise, so
          each computes exactly the induced (anti-)algebra map.

        A relation that fails in A itself fails all three premises, and
        their details name it.

        The four per-monomial axioms then run on the unit and the five
        generators (`GENERATOR_MONOMIALS`) only, and the premises extend
        them to every element:

        * coassociativity: (Delta (x) id)Delta and (id (x) Delta)Delta are
          algebra maps once Delta is multiplicative, and algebra maps that
          agree on generators agree everywhere;
        * counit: (eps (x) id)Delta and (id (x) eps)Delta are algebra maps
          once Delta and eps are multiplicative, as is the identity;
        * antipode: if m(S (x) id)Delta(x) = eps(x) 1 for x and y, then
          m(S (x) id)Delta(xy) = S(y1) S(x1) x2 y2 = S(y1) eps(x) y2 =
          eps(x) eps(y) = eps(xy) once S is anti-multiplicative and Delta
          and eps are multiplicative; likewise for m(id (x) S)Delta;
        * S^2 = conjugation by K^(p1-p2): S^2 is an algebra map once S is
          anti-multiplicative, and so is conjugation by the group-like.

        A reduced check passes only when its own unit and generator cases
        pass and the premises it relies on pass; otherwise it fails and
        its detail names the failing premise.  Each check's ``scope`` says
        what it ran on; a failing check names its first failing monomial or
        relation.
        """
        one = self.params.one
        unit = PBWMonomial(0, 0, 0, 0, 0)
        g = {PBWMonomial(0, 0, 0, 0, (self.p1 - self.p2) % self.korder): one}
        ginv = {PBWMonomial(0, 0, 0, 0, (self.p2 - self.p1) % self.korder): one}
        fails: dict[str, list] = {name: [] for name in (
            "coassoc", "counit", "antipode", "square")}
        on_A = defining_relations(self.params, self.relation_target())
        in_A = [name for name, holds in on_A if not holds]
        where: dict[str, str] = {}
        for key, (target, space) in self._hopf_targets().items():
            fails[key] = [name for name, holds
                          in defining_relations(self.params, target) if not holds]
            where[key] = space
        for mono in (unit,) + GENERATOR_MONOMIALS:
            x = {mono: one}
            delta = self.coproduct_monomial(mono)
            if delta.associate_left() != delta.associate_right():
                fails["coassoc"].append(str(mono))
            if delta.apply_counit_left() != x or delta.apply_counit_right() != x:
                fails["counit"].append(str(mono))
            eps = self.pbw_counit(x)
            target = {} if eps.is_zero() else {unit: eps}
            if (delta.fold_antipode_left() != target
                    or delta.fold_antipode_right() != target):
                fails["antipode"].append(str(mono))
            if (self.pbw_antipode(self.antipode_monomial(mono))
                    != self.pbw_product(self.pbw_product(g, x), ginv)):
                fails["square"].append(str(mono))

        reduced = (f"unit + {len(GENERATOR_MONOMIALS)} generators, extended "
                   f"to all {self.dimension} monomials by the defining relations")
        premise_ids = {"coproduct": "coproduct is an algebra map",
                       "anti": "antipode is an anti-morphism",
                       "counit-mult": "counit is multiplicative"}

        def check(check_id, key, anchor, premises=(), note=""):
            bad = fails[key]
            own_in_A = in_A if key in where else []
            scope = reduced if premises else (
                f"presentation: {len(on_A)} defining relations on the "
                f"generator images in {where[key]}")
            detail = f"{scope}; failures: {len(bad)}"
            if bad:
                detail += f", first at {bad[0]}"
            if own_in_A:
                detail += "; relations failing in A itself: " + ", ".join(own_in_A)
            missing = [premise_ids[p] for p in premises if fails[p] or in_A]
            if missing:
                detail += "; not extended, premise failed: " + ", ".join(missing)
            return Check(check_id, not (bad or own_in_A or missing), detail + note,
                         anchor=anchor, scope=scope)

        return [
            check("coassociativity", "coassoc", "hopf-coassociativity",
                  ("coproduct",)),
            check("counit axiom", "counit", "hopf-counit",
                  ("coproduct", "counit-mult"),
                  "; counit fixed to send K to 1 (the group-like value; a "
                  "unit-valued counit is forced by the axioms)"),
            check("antipode axiom", "antipode", "hopf-antipode",
                  ("coproduct", "anti", "counit-mult")),
            check("antipode square is conjugation by K^(p1-p2)", "square",
                  "antipode-square-conjugation", ("anti",)),
            check("coproduct is an algebra map", "coproduct",
                  "coproduct-multiplicative"),
            check("antipode is an anti-morphism", "anti",
                  "antipode-antimorphism"),
            check("counit is multiplicative", "counit-mult",
                  "counit-multiplicative"),
        ]


def _same_algebra(x, y) -> None:
    """Refuse to combine elements (or tensors) of two different pairs."""
    # for_pair builds a new Algebra per call, so equal pairs also pass
    if x.algebra is not y.algebra and x.algebra.params != y.algebra.params:
        raise ValueError(
            f"cannot combine elements of the algebras at "
            f"({x.algebra.p1}, {x.algebra.p2}) and "
            f"({y.algebra.p1}, {y.algebra.p2})")


class AlgebraElement:
    """A sparse element in the projector basis: dict from the word-projector
    key (m1, m2, n1, n2, j) to the nonzero coefficient of w 1_j."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict[tuple, CycloNumber]):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def pbw_terms(self) -> Terms:
        """The element in the PBW basis, {PBWMonomial: nonzero coeff}."""
        polys: dict[tuple, dict[int, CycloNumber]] = {}
        for (m1, m2, n1, n2, j), c in self.terms.items():
            polys.setdefault((m1, m2, n1, n2), {})[j] = c
        alg = self.algebra
        return {PBWMonomial(*word, ell): c
                for word, ell, c in alg._fourier(polys, -1, alg.korder)}

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
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
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_algebra(self, other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            val = out.get(key)
            tot = -coeff if val is None else val - coeff
            if tot.is_zero():
                out.pop(key, None)
            else:
                out[key] = tot
        return AlgebraElement(self.algebra, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        """The product with a scalar of the algebra's field (an element
        of another field raises ValueError) or with an element of the
        same pair (another pair raises ValueError).

        Pointwise in j (the module docstring): (w_u 1_a)(w_v 1_b) is
        (w_u w_v) 1_b at a = b + t_v/2 and zero elsewhere.  The right
        factor's terms are indexed by the left index a they meet
        (`meeting_index`), and the left factor's terms walk that index.
        Each meeting pair reads the evaluated row of b mod P from the
        pair's memo entry ("Evaluated rows") and adds (c_u c_v) * V at
        word 1_b for each (word, V) of it.

        Prune rule.  Every coefficient of an element is nonzero, every row
        value V is nonzero, and Q(zeta_N) is a field, so each contribution
        (c_u c_v) * V is nonzero.  A key that got one contribution holds
        it and is nonzero; only a key that got two or more can sum to
        zero, so only those keys are tested and dropped when zero.
        """
        scalar = self.algebra.field.scalar(other)
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
        alg = self.algebra
        alg.element_products += 1
        meeting = alg.meeting_index
        memo = alg._word_products
        right: dict[int, list] = {}
        for key, cv in other.terms.items():
            right.setdefault(meeting(key), []).append((key[:4], key[4], cv))
        out: dict[tuple, CycloNumber] = {}
        twice = set()
        for term, cu in self.terms.items():
            vs = right.get(term[4])
            if vs is None:
                continue
            wu = term[:4]
            for wv, b, cv in vs:
                entry = memo.get((wu, wv))
                if entry is None:
                    entry = alg._word_pair(wu, wv)
                r = b % entry[1]
                row = entry[2][r]
                if row is None:
                    row = alg._pair_row(entry, r)
                if not row:
                    continue
                c = cu * cv
                for keys, value in row:
                    key = keys[b]
                    val = out.get(key)
                    if val is None:
                        out[key] = c * value
                    else:
                        out[key] = val + c * value
                        twice.add(key)
        for key in twice:
            if out[key].is_zero():
                del out[key]
        return AlgebraElement(alg, out)

    def __rmul__(self, other):
        scalar = self.algebra.field.scalar(other)
        if scalar is not None:
            return self.__mul__(scalar)
        return NotImplemented

    def __truediv__(self, other):
        scalar = self.algebra.field.scalar(other)
        if scalar is None:
            return NotImplemented
        return self.__mul__(scalar.inverse())

    def power(self, n: int) -> "AlgebraElement":
        """x^n for n >= 0: one for n = 0, else n - 1 products from x."""
        if n < 0:
            raise ValueError("negative powers are not defined for general elements")
        if n == 0:
            return self.algebra.one()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraElement):
            _same_algebra(self, other)
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms)[:6]:
            c = self.terms[key]
            word = [f"{sym}^{exp}" if exp != 1 else sym
                    for sym, exp in zip(("e1", "e2", "f1", "f2"), key) if exp]
            word.append(f"1_{key[4]}")
            bits.append(f"({c})*{'*'.join(word)}")
        more = "" if len(self.terms) <= 6 else f" + ... ({len(self.terms)} terms)"
        return " + ".join(bits) + more


class TensorElement:
    """A sparse element of the two-fold tensor square, used for coproducts.

    Keys are pairs of PBW monomials.
    """

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
        scalar = self.algebra.field.scalar(other)
        if scalar is not None:
            if scalar.is_zero():
                return TensorElement(self.algebra, {})
            return TensorElement(
                self.algebra, {k: c * scalar for k, c in self.terms.items()}
            )
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_algebra(self, other)
        # (a (x) b)(u (x) v) = au (x) bv, each factor read off the word
        # product as in `product_monomials`; the K-crossing twists of both
        # factors fold into one zeta index per term pair
        alg = self.algebra
        korder, zeta, N = alg.korder, alg._zeta, alg._N
        weight = alg.conjugation_weight_exponent
        word_product = alg._word_product
        rhs = [(u[:4], u[4], weight(u), v[:4], v[4], weight(v), c2)
               for (u, v), c2 in other.terms.items()]
        out: dict[tuple[PBWMonomial, PBWMonomial], CycloNumber] = {}
        for (a, b), c1 in self.terms.items():
            wa, la, wb, lb = a[:4], a[4], b[:4], b[4]
            for wu, lu, tu, wv, lv, tv, c2 in rhs:
                c = c1 * c2 * zeta[(la * tu + lb * tv) % N]
                right = word_product(wb, wv)
                for _, monos_l, shift_l, coef_l in word_product(wa, wu):
                    ml = monos_l[(shift_l + la + lu) % korder]
                    cl = c * coef_l
                    for _, monos_r, shift_r, coef_r in right:
                        key = (ml, monos_r[(shift_r + lb + lv) % korder])
                        add = cl * coef_r
                        val = out.get(key)
                        out[key] = add if val is None else val + add
        return TensorElement(alg, _pruned(out))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, TensorElement):
            _same_algebra(self, other)
            return self.terms == other.terms
        return NotImplemented

    # -- Hopf-axiom helpers, on PBW terms -----------------------------------

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

    def apply_counit_left(self) -> Terms:
        """(counit tensor id) applied to self, as PBW terms."""
        out: Terms = {}
        for (a, b), c in self.terms.items():
            if a[:4] == _UNIT_WORD:
                val = out.get(b)
                out[b] = c if val is None else val + c
        return _pruned(out)

    def apply_counit_right(self) -> Terms:
        """(id tensor counit) applied to self, as PBW terms."""
        out: Terms = {}
        for (a, b), c in self.terms.items():
            if b[:4] == _UNIT_WORD:
                val = out.get(a)
                out[a] = c if val is None else val + c
        return _pruned(out)

    def fold_antipode_left(self) -> Terms:
        """m(S tensor id) applied to self, as PBW terms."""
        alg = self.algebra
        one = alg.params.one
        out: Terms = {}
        for (a, b), c in self.terms.items():
            _accumulate(out, alg.pbw_product(alg.antipode_monomial(a), {b: one}), c)
        return _pruned(out)

    def fold_antipode_right(self) -> Terms:
        """m(id tensor S) applied to self, as PBW terms."""
        alg = self.algebra
        one = alg.params.one
        out: Terms = {}
        for (a, b), c in self.terms.items():
            _accumulate(out, alg.pbw_product({a: one}, alg.antipode_monomial(b)), c)
        return _pruned(out)

    def __repr__(self) -> str:
        return f"TensorElement({len(self.terms)} terms)"
