"""Left-ideal bases, primitive idempotents, and the block decomposition.

Every element constructed here has the shape (left word) * v, where v is
the weight averager

    v = sum_l (alpha * q1^-(r1-2*s1+1) * q2^-(r2-2*s2+1))^l K^l,

a K-polynomial that projects onto a single K-weight (up to the factor
2*p1*p2) and kills the three mismatched weight patterns.  In the
projector basis the elements are stored in, v is the single term
2*p1*p2 * 1_j, so each named element is built right to left, averager
first: every core word sum is multiplied by v before its prefix words,
and every product along the way stays as small as the result.

A block is labelled by a pair (r1, r2).  The two copies commute and
share only K, so the left ideal of a primitive idempotent (alpha, r1, r2;
s1, s2) is a product of one ladder per copy.  A copy with r_d = p_d is
full and contributes its bottom rung family only; any other copy is a
ladder with top, left, right and bottom families (bottom and top run
within the ladder, r_d rungs; left and right beyond it, p_d - r_d rungs).
A family is a pair of roles, one per copy.  Its root is a corpus (the
core word, summed against the gamma/delta tails where a role asks for
it, times the averager) divided by Phi; every other element is one
generator times its ladder predecessor over a normalizer ratio
(`_predecessor`, proved in `_value`).  The generator actions move
elements along these ladders with phi-coefficients, and the displayed
relations -- normalization handoffs included -- are what
verify_ladder_relations checks.  Each generator times each basis vector
is compared with its displayed image once per left ideal (`ActionTable`):
the product that built an element is read there, K's product is read
off the vector's projector keys, and every other one is expanded there
and nowhere else.  The ladder checks tally the comparisons, the
slot-(1, 1) images are the generator matrices (`generator_matrix`) that
the realization reads and the block annihilators are evaluated on, the
socle match and the top-family adjudications read the images and
verdicts they name (`_sweep_premise`), and the idempotent squares walk
them (`_ideal_product`).

Names come from a naming view of the roles: the first ladder copy's role
gives the arrow (up, left, right, down), the second ladder copy's role
gives the letter (T, L, R, B), and a missing ladder copy reads as down or
B.  So a corner ideal has the one family B/down, a boundary ideal four B
arrows, an interior ideal sixteen letter/arrow families.

This module owns the left-ideal layout.  `ladder_copies` says which
copies of a class are ladders; `ladder_families` is the product of the
two copies' roles, second copy outside, first copy inside, each role
list in the one order top, left, right, bottom; `summands_of` lists a
block's classes, `slots` a class's idempotent slots, and
`primitive_idempotent_catalog` reads both.  `ideal_basis` enumerates a
left ideal in family order, and the matrix realization uses it as its
coordinates.  One rule picks the family of a slot's element, top on
each ladder copy and bottom elsewhere: a primitive idempotent is that
element, and a block's central element sums it over classes and slots
with bottom on the dropped ladder copies (`central_element`).

Known misprints in the source displays are adjudicated computationally:
the checker verifies the corrected form and records what the printed
variant would have done.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .algebra import Algebra, AlgebraElement, casimir
from .cyclo import CycloNumber, Params
from .linalg import IncrementalSpan, Matrix
from .modules import (SimpleModuleSpec, _phi_formula, casimir_eigenvalue,
                      matrix_target, phi, simple_action)
from .report import Check


class BlockLabel(NamedTuple):
    """Two-sided ideal label; see BlockSystem.block_labels for the list."""

    r1: int
    r2: int


class ProjectiveSummand(NamedTuple):
    """Isomorphism-class label (sign, ladder sizes) of one projective
    summand: the left ideal of a primitive idempotent with these labels."""

    alpha: int
    r1: int
    r2: int


class LadderFamily(NamedTuple):
    """One family of a left ideal, with its rung on each copy's ladder.

    ``roles[d-1]`` is 'bottom', 'left', 'top' or 'right' on copy d's
    ladder.  A bottom or top index runs within the ladder (slot type 'n',
    r_d values), a left or right one beyond it (slot type 'k', p_d - r_d
    values); ``sizes`` holds the two ranges.
    """

    family: str
    arrow: str
    roles: Tuple[str, str]
    sizes: Tuple[int, int]

    @property
    def slots(self) -> Tuple[str, str]:
        return tuple("n" if role in ("bottom", "top") else "k"
                     for role in self.roles)


class ScalarConstants(NamedTuple):
    """Normalization package for one (alpha, r1, r2) family."""

    Phi: CycloNumber
    Psi1: CycloNumber
    Psi2: CycloNumber
    gamma: Tuple[CycloNumber, ...]
    delta: Tuple[CycloNumber, ...]


@dataclass(frozen=True)
class NamedElement:
    """One constructed element, tagged with its full coordinate tuple."""

    family: str   # 'v', 'b', 'B', 'L', 'T', 'R'
    arrow: str    # 'down', 'left', 'up', 'right', 'none'
    alpha: int
    r1: int
    r2: int
    s1: int
    s2: int
    idx1: int
    idx2: int
    value: AlgebraElement


class LadderFailure(NamedTuple):
    """One relation whose product in A differs from its displayed image:
    the generator, the basis column it acts on, the `ladder[...]` check id
    and the instance as that check names it."""

    generator: str
    column: int
    check: str
    instance: str


class ActionTable(NamedTuple):
    """Left multiplication by the generators on one left ideal.

    ``images[g][c]`` holds the coordinates over `ideal_basis` of g times
    basis vector c, read off its displayed image, with at most two
    nonzero entries; ``failed`` lists the relations whose product in A
    differs from that image.
    """

    images: Dict[str, List[Dict[int, CycloNumber]]]
    failed: Tuple[LadderFailure, ...]


ACTION_GENERATORS = ("K", "e1", "f1", "e2", "f2")

# The roles of one copy's ladder, in the one family order.  A full copy
# has the bottom role only.
ROLES = ("top", "left", "right", "bottom")
# The naming view: the first ladder copy's role names the arrow, the
# second ladder copy's role names the letter.
_ARROW_OF_ROLE = dict(zip(ROLES, ("up", "left", "right", "down")))
_LETTER_OF_ROLE = dict(zip(ROLES, ("T", "L", "R", "B")))
# the idempotent kind of a class, by its number of ladder copies
_IDEMPOTENT_KINDS = ("X-type", "P-boundary", "P-interior")


# How a ladder instance is decided with no product, as its check's scope
# says it after the count of such instances.
_DERIVED = {
    "built": "of them derived: g × predecessor, displayed coefficient = "
             "normalizer ratio, target nonzero, no product",
    "weight": "derived from the projector keys: K x = mu x where zeta^(2a) "
              "= mu at the meeting index a of every key of x, no product",
    "averager": "derived from the projector keys: v x is korder times the "
                "terms of x whose keys meet the averager's index, no product",
}


def _accumulate(out: Dict[int, CycloNumber], key: int,
                value: CycloNumber) -> None:
    """out[key] += value, with a missing key read as 0."""
    cur = out.get(key)
    out[key] = value if cur is None else cur + value


def _entry(alpha: int, r1: int, r2: int, s1: int, s2: int) -> str:
    """A primitive left ideal as it is named in details and scopes."""
    return f"({alpha:+d},{r1},{r2};{s1},{s2})"


class BlockSystem:
    """Constructs and verifies the ideal/idempotent layer of one algebra."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.params: Params = algebra.params
        self.p1 = self.params.p1
        self.p2 = self.params.p2
        self._scalars: Dict[tuple, ScalarConstants] = {}
        self._memo: Dict[tuple, NamedElement] = {}
        self._corpora: Dict[tuple, AlgebraElement] = {}
        self._families: Dict[Tuple[int, int],
                             Dict[Tuple[str, str], LadderFamily]] = {}
        self._generators = {g: algebra.generator(g)
                            for g in ACTION_GENERATORS}
        # the action tables of the slot-(1, 1) ideals, and the failures of
        # every ideal whose table was built
        self._tables: Dict[ProjectiveSummand, ActionTable] = {}
        self._failures: Dict[tuple, Tuple[LadderFailure, ...]] = {}

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------

    def averager_ratio(self, alpha: int, r1: int, r2: int,
                       s1: int, s2: int) -> CycloNumber:
        """The geometric ratio of the averager's K-power sum."""
        P = self.params
        return (P.alpha_sign(alpha)
                * P.q1_pow(-(r1 - 2 * s1 + 1))
                * P.q2_pow(-(r2 - 2 * s2 + 1)))

    def weight_averager(self, alpha: int, r1: int, r2: int,
                        s1: int, s2: int) -> AlgebraElement:
        """The K-polynomial projecting onto weight slot (s1-1, s2-1).

        In PBW terms it is sum_l ratio^l K^l over 0 <= l < korder.  Its
        coefficient at 1_j is sum_l (ratio zeta^(2j))^l, which is korder
        where zeta^(2j) ratio = 1 and 0 at every other j, so it is stored
        as the one projector term korder 1_j.  ratio = zeta^k has such a j
        only for even k; an odd k, or a ratio that is no power of zeta,
        raises ArithmeticError.
        """
        self._check_family_labels(alpha, r1, r2, s1, s2)
        P = self.params
        ratio = self.averager_ratio(alpha, r1, r2, s1, s2)
        k = P.field.root_exponent(ratio)
        if k is None:
            raise ArithmeticError(
                f"averager ratio {ratio!r} of {(alpha, r1, r2, s1, s2)} is "
                f"no power of zeta: no K-eigenvalue inverts it")
        if k % 2:
            raise ArithmeticError(
                f"averager ratio zeta^{k} of {(alpha, r1, r2, s1, s2)} is "
                f"not an even power of zeta: no K-eigenvalue inverts it")
        j = (-k // 2) % P.korder
        return AlgebraElement(self.algebra,
                              {(0, 0, 0, 0, j): P.rational(P.korder)})

    def _check_family_labels(self, alpha: int, r1: int, r2: int,
                             s1: int, s2: int) -> None:
        if alpha not in (1, -1):
            raise ValueError(f"sign label must be +1 or -1, got {alpha!r}")
        if not 1 <= r1 <= self.p1 or not 1 <= r2 <= self.p2:
            raise ValueError(f"(r1, r2) out of range: {(r1, r2)}")
        if not 1 <= s1 <= r1 or not 1 <= s2 <= r2:
            raise ValueError(
                f"(s1, s2) must satisfy 1 <= s_i <= r_i, got {(s1, s2)}")

    def _phi_checked(self, i: int, alpha: int, n: int, r1: int, r2: int,
                     context: str) -> CycloNumber:
        value = phi(self.params, i, alpha, n, r1, r2)
        if value.is_zero():
            raise ArithmeticError(
                f"vanishing normalizer factor phi_{i}^({alpha:+d})"
                f"({n}, {r1}, {r2}) in {context}")
        return value

    def scalar_constants(self, alpha: int, r1: int, r2: int) -> ScalarConstants:
        """Phi, Psi_1, Psi_2 and the gamma/delta coefficient vectors.

        Empty products are 1 and empty sums are 0; every phi factor that
        enters a denominator is checked to be nonzero.
        """
        self._check_family_labels(alpha, r1, r2, 1, 1)
        key = (alpha, r1, r2)
        cached = self._scalars.get(key)
        if cached is not None:
            return cached
        P = self.params
        phi_total = P.rational(2 * self.p1 * self.p2)
        psis: List[CycloNumber] = []
        tails: List[Tuple[CycloNumber, ...]] = []
        for d, r, p in ((1, r1, self.p1), (2, r2, self.p2)):
            reflected = self._reflected(d, r1, r2)
            psi = P.field.zero
            steps = [(i, alpha, (r1, r2)) for i in range(1, r)]
            steps += [(k, -alpha, reflected) for k in range(1, p - r)]
            for i, sign, labels in steps:
                val = self._phi_checked(d, sign, i, *labels, "Phi")
                phi_total = phi_total * val
                psi = psi + val.inverse()
            psis.append(psi)
            # the m-th tail coefficient (gamma on copy 1, delta on copy 2)
            # is the product of the (-alpha)-phi factors with ladder
            # positions p-r-m+1 .. p-r-1; growing m extends the product
            # downward one factor at a time.
            tail: List[CycloNumber] = []
            acc = P.field.one
            for m in range(1, p - r + 1):
                if m >= 2:
                    acc = acc * self._phi_checked(
                        d, -alpha, p - r - (m - 1), *reflected,
                        ("gamma", "delta")[d - 1])
                tail.append(acc)
            tails.append(tuple(tail))

        out = ScalarConstants(phi_total, *psis, *tails)
        self._scalars[key] = out
        return out

    def _reflected(self, d: int, r1: int, r2: int) -> Tuple[int, int]:
        """(r1, r2) with copy d's ladder reflected to p_d - r_d: the labels
        of the phi normalizers beyond copy d's ladder."""
        return (self.p1 - r1, r2) if d == 1 else (r1, self.p2 - r2)

    def _tail(self, d: int, alpha: int, r1: int, r2: int, k: int,
              sign: int = -1) -> CycloNumber:
        """Product of copy-d phi normalizers above rung k beyond the
        ladder (the reflected ladder of p_d - r_d rungs)."""
        reflected = self._reflected(d, r1, r2)
        out = self.params.field.one
        for j in range(k + 1, reflected[d - 1]):
            out = out * self._phi_checked(
                d, sign * alpha, j, *reflected, "left normalizer")
        return out

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def ladder_copies(self, r1: int, r2: int) -> Tuple[int, ...]:
        """The copies d of the class (., r1, r2) that are ladders
        (r_d < p_d); the others are full."""
        return tuple(d for d, r, p in ((1, r1, self.p1), (2, r2, self.p2))
                     if r < p)

    def block_ladders(self, label: BlockLabel) -> Tuple[int, ...]:
        """The ladder copies of a block's classes (reflection keeps them)."""
        S = self.summands_of(label)[0]
        return self.ladder_copies(S.r1, S.r2)

    def copy_roles(self, d: int, r: int) -> Tuple[str, ...]:
        """Copy d's roles at ladder size r: all four on a ladder, bottom
        on a full copy."""
        return ROLES if r < (self.p1 if d == 1 else self.p2) else ("bottom",)

    def family_name(self, r1: int, r2: int,
                    roles: Tuple[str, str]) -> Tuple[str, str]:
        """(letter, arrow) of the family with these per-copy roles: the
        first ladder copy's role gives the arrow, the second's the
        letter, and a missing ladder copy reads as down or B."""
        ladder = [roles[d - 1] for d in self.ladder_copies(r1, r2)]
        ladder += ["bottom", "bottom"]
        return _LETTER_OF_ROLE[ladder[1]], _ARROW_OF_ROLE[ladder[0]]

    def ladder_families(self, r1: int, r2: int) -> Dict[Tuple[str, str],
                                                         LadderFamily]:
        """The families of a class (., r1, r2), keyed (family, arrow): the
        product of the two copies' roles, second copy outside."""
        cached = self._families.get((r1, r2))
        if cached is not None:
            return cached
        out: Dict[Tuple[str, str], LadderFamily] = {}
        for role2 in self.copy_roles(2, r2):
            for role1 in self.copy_roles(1, r1):
                roles = (role1, role2)
                sizes = tuple(r if role in ("bottom", "top") else p - r
                              for role, r, p in zip(roles, (r1, r2),
                                                    (self.p1, self.p2)))
                name = self.family_name(r1, r2, roles)
                out[name] = LadderFamily(*name, roles, sizes)
        self._families[(r1, r2)] = out
        return out

    def _copy_words(self, d: int, role: str, alpha: int, r1: int, r2: int,
                    s: int) -> List[Tuple[CycloNumber, int, int]]:
        """Copy d's factor of a corpus, as (coefficient, e_d exponent,
        f_d exponent) terms.

        bottom is the plain top power e_d^(p_d - 1); left sums gamma_m *
        e_d^(p_d - m) (delta on copy 2) over the tail; top sums gamma_m *
        e_d^(p_d - 1 - m) and subtracts Psi_d times the plain top power.
        The f-exponent p_d - s - m tracks m.
        """
        p = self.p1 if d == 1 else self.p2
        consts = self.scalar_constants(alpha, r1, r2)
        if role == "bottom":
            return [(self.params.field.one, p - 1, p - s)]
        offset = 1 if role == "top" else 0
        tail = consts.gamma if d == 1 else consts.delta
        words = [(c, p - offset - m, p - s - m) for m, c in enumerate(tail, 1)]
        if role == "top":
            psi = consts.Psi1 if d == 1 else consts.Psi2
            words.append((-psi, p - 1, p - s))
        return words

    def _corpus(self, alpha: int, r1: int, r2: int, s1: int, s2: int,
                role1: str, role2: str) -> AlgebraElement:
        """The product of the two copies' corpus factors times the
        averager v, unnormalised; cached by the two factor kinds."""
        key = (alpha, r1, r2, s1, s2, role1, role2)
        cached = self._corpora.get(key)
        if cached is not None:
            return cached
        A = self.algebra
        words = {A.monomial(a1, a2, b1, b2, 0): c1 * c2
                 for c1, a1, b1 in self._copy_words(1, role1, alpha, r1, r2, s1)
                 for c2, a2, b2 in self._copy_words(2, role2, alpha, r1, r2, s2)}
        out = A.element(words) * self.weight_averager(alpha, r1, r2, s1, s2)
        self._corpora[key] = out
        return out

    def _prefix(self, m1: int, m2: int, n1: int, n2: int) -> AlgebraElement:
        return self.algebra.monomial_element(self.algebra.monomial(m1, m2, n1, n2, 0))

    def _predecessor(self, family: str, arrow: str, alpha: int, r1: int,
                     r2: int, i1: int, i2: int
                     ) -> Optional[Tuple[str, Tuple[str, str, int, int],
                                         CycloNumber]]:
        """(g, predecessor (family, arrow, idx1, idx2), ratio) with the
        named element = g × predecessor / ratio; None for a family root,
        whose copies all sit at rung 0 of a bottom or top role or at rung
        p_d - r_d - 1 of a left one.

        Copy 1 steps first: f_d from rung i - 1 on a bottom, top or right
        role, and from the top role's rung r_d - 1 to the right role's
        rung 0, with ratio 1; e_d from rung i + 1 on a left role, with
        ratio phi_d^-alpha(i + 1) at the reflected labels.  The ratio is
        the move's displayed coefficient (`_ladder_images`).
        """
        roles = list(self.ladder_families(r1, r2)[(family, arrow)].roles)
        index = [i1, i2]
        one = self.params.field.one
        for d, r, p in ((1, r1, self.p1), (2, r2, self.p2)):
            role, i = roles[d - 1], index[d - 1]
            if role == "left" and i < p - r - 1:
                gen, index[d - 1] = f"e{d}", i + 1
                ratio = self._phi_checked(d, -alpha, i + 1,
                                          *self._reflected(d, r1, r2),
                                          "left normalizer")
            elif role == "right" and i == 0:
                gen, roles[d - 1], index[d - 1], ratio = (f"f{d}", "top",
                                                          r - 1, one)
            elif role != "left" and i > 0:
                gen, index[d - 1], ratio = f"f{d}", i - 1, one
            else:
                continue
            return (gen, (*self.family_name(r1, r2, tuple(roles)), *index),
                    ratio)
        return None

    def _value(self, family: str, arrow: str, alpha: int, r1: int,
               r2: int, s1: int, s2: int, i1: int, i2: int) -> AlgebraElement:
        """The value of a named element: a family root from its corpus,
        any other from its ladder predecessor (`_predecessor`).

        Each element is a prefix word times the corpus of its roles (on a
        right copy, the top role's), over its normalizer N: Phi times each
        left copy's `_tail`.  Copy d's prefix letter is e_d^(p_d - r_d - 1
        - i_d) on a left role, f_d^(r_d + i_d) on a right one and f_d^(i_d)
        otherwise.  A root's prefix is 1, so it is corpus / Phi; b is Phi ×
        B/down.

        Proof of the step.  The prefix is the PBW word e1^m1 e2^m2 f1^n1
        f2^n2, and the copy that g_d moves has no e_d in it (f_d moves a
        bottom, top or right role) or no f_d (e_d moves a left one).  The
        relations e1 e2 = e2 e1, f1 f2 = f2 f1 and [e1, f2] = [e2, f1] = 0
        carry g_d past the other copy's letters, so g_d times the
        predecessor's prefix is the element's: f_d^(i + 1) from f_d^i, the
        right role's f_d^(r_d) from the top role's f_d^(r_d - 1), and
        e_d^(m + 1) from e_d^m.  By associativity, g_d × predecessor =
        prefix × corpus / N(predecessor) = element × N(element) /
        N(predecessor).  N changes only on a left step, where _tail(i) =
        _tail(i + 1) phi_d^-alpha(i + 1): that quotient is the ratio.  So
        the sweep's instance g_d × predecessor = ratio × element holds
        by construction once its displayed coefficient is the ratio, and
        `_build_action_table` checks that, and that the element is
        nonzero, with no product.
        """
        if family == "v":
            return self.weight_averager(alpha, r1, r2, s1, s2)
        slot = (alpha, r1, r2, s1, s2)
        if family == "b":
            return (self.build_named_element("B", "down", *slot, i1, i2).value
                    * self.scalar_constants(alpha, r1, r2).Phi)
        step = self._predecessor(family, arrow, alpha, r1, r2, i1, i2)
        if step is None:
            roles = self.ladder_families(r1, r2)[(family, arrow)].roles
            return (self._corpus(*slot, *roles)
                    / self.scalar_constants(alpha, r1, r2).Phi)
        gen, (pfamily, parrow, j1, j2), ratio = step
        out = self._generators[gen] * self.build_named_element(
            pfamily, parrow, *slot, j1, j2).value
        return out if ratio is self.params.field.one else out / ratio

    def build_named_element(self, family: str, arrow: str, alpha: int,
                            r1: int, r2: int, s1: int, s2: int,
                            idx1: int = 0, idx2: int = 0) -> NamedElement:
        """Assemble one named element; indices validated per family.

        The families and index ranges are those of `ladder_families`;
        the unnormalized family b exists with the down arrow only, on the
        ranges of B/down.
        """
        self._check_family_labels(alpha, r1, r2, s1, s2)
        key = (family, arrow, alpha, r1, r2, s1, s2, idx1, idx2)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        if family == "v":
            if arrow != "none" or (idx1, idx2) != (0, 0):
                raise ValueError("the averager carries no arrow and no indices")
        else:
            name = ("B", "down") if (family, arrow) == ("b", "down") else (
                family, arrow)
            fam = self.ladder_families(r1, r2).get(name)
            if fam is None:
                raise ValueError(
                    f"family {family}/{arrow} is not defined on the "
                    f"class ({r1}, {r2})")
            for which, idx, size in (("first", idx1, fam.sizes[0]),
                                     ("second", idx2, fam.sizes[1])):
                if not 0 <= idx < size:
                    raise ValueError(
                        f"{which} index out of range [0, {size - 1}]: {idx}")

        value = self._value(family, arrow, alpha, r1, r2, s1, s2,
                            idx1, idx2)
        out = NamedElement(family, arrow, alpha, r1, r2, s1, s2,
                           idx1, idx2, value)
        self._memo[key] = out
        return out

    # ------------------------------------------------------------------
    # Blocks and idempotents
    # ------------------------------------------------------------------

    def block_labels(self) -> List[BlockLabel]:
        """All two-sided-ideal labels, interior region first."""
        p1, p2 = self.p1, self.p2
        labels = [BlockLabel(r1, r2)
                  for r1 in range(1, p1)
                  for r2 in range(1, p2)
                  if p2 * r1 + p1 * r2 <= p1 * p2]
        labels += [BlockLabel(r1, p2) for r1 in range(1, p1)]
        labels += [BlockLabel(p1, r2) for r2 in range(1, p2)]
        labels += [BlockLabel(p1, p2), BlockLabel(0, p2)]
        return labels

    def block_kind(self, label: BlockLabel) -> str:
        p1, p2 = self.p1, self.p2
        if label == (p1, p2):
            return "corner-plus"
        if label == (0, p2):
            return "corner-minus"
        if label.r2 == p2 and 1 <= label.r1 <= p1 - 1:
            return "edge-1"
        if label.r1 == p1 and 1 <= label.r2 <= p2 - 1:
            return "edge-2"
        if (1 <= label.r1 <= p1 - 1 and 1 <= label.r2 <= p2 - 1
                and p2 * label.r1 + p1 * label.r2 <= p1 * p2):
            return "interior"
        raise ValueError(f"not a block label: {label}")

    def primitive_idempotent(self, kind: str, alpha: int, r1: int, r2: int,
                             s1: int, s2: int) -> AlgebraElement:
        """One primitive idempotent: `_slot_element` with no copy dropped.
        ``kind`` must be the class's own idempotent kind (X-type with no
        ladder copy, P-boundary with one, P-interior with two)."""
        self._check_family_labels(alpha, r1, r2, s1, s2)
        if kind not in _IDEMPOTENT_KINDS:
            raise ValueError(f"unknown idempotent kind {kind!r}")
        own = _IDEMPOTENT_KINDS[len(self.ladder_copies(r1, r2))]
        if kind != own:
            raise ValueError(
                f"{kind} idempotents are not defined on the class "
                f"({r1}, {r2}), whose idempotents are {own}")
        return self._slot_element(alpha, r1, r2, s1, s2)

    def _slot_name(self, r1: int, r2: int, s1: int, s2: int,
                   dropped: Collection[int] = ()) -> Tuple[str, str, int, int]:
        """(family, arrow, idx1, idx2) of the element at index pair (s1 -
        1, s2 - 1) whose role is bottom on each copy in ``dropped``, top on
        any other ladder copy and bottom on a full copy."""
        ladders = self.ladder_copies(r1, r2)
        roles = tuple("top" if d in ladders and d not in dropped else "bottom"
                      for d in (1, 2))
        return (*self.family_name(r1, r2, roles), s1 - 1, s2 - 1)

    def _slot_element(self, alpha: int, r1: int, r2: int, s1: int, s2: int,
                      dropped: Collection[int] = ()) -> AlgebraElement:
        """The value of the `_slot_name` element of the slot's ideal."""
        family, arrow, i1, i2 = self._slot_name(r1, r2, s1, s2, dropped)
        return self.build_named_element(family, arrow, alpha, r1, r2, s1, s2,
                                        i1, i2).value

    def central_element(self, label: BlockLabel,
                        flags: Mapping[int, int]) -> AlgebraElement:
        """The central element dropping the block's ladder copies d at the
        reflection flags flags[d]: over the classes with those flags and
        their slots (s1, s2), the sum of `_slot_element` with the flagged
        copies dropped.  No flags give the block idempotent.

        Its matrix is the drop's prescription: on the summands with those
        flags, the unit map top -> bottom on each dropped copy and the
        identity on every role of the others; zero on the rest.  By the
        shape template (checked by `action-table`) an element acts at (its
        indices, its slot indices) in each cell of its tag, and on a copy d
        a bottom role acts only at its own class's (bottom, top) cell; a
        top role at (top, top) and (bottom, bottom) of its own class and
        at (left, left) and (right, right) of the class reflected on d; a
        full copy's bottom role at its (bottom, bottom) cell.  Summed over
        s_d in 1..r_d, and on a kept ladder copy over both flags, each copy
        lays its factor of the prescription, and the sum over classes is
        the product of the copy sums.  The block acts faithfully
        (`faithful`), so this is the one block element realizing it.
        """
        return sum((self._slot_element(*entry, flags)
                    for entry in self.central_slots(label, flags)),
                   self.algebra.zero())

    def central_slots(self, label: BlockLabel, flags: Mapping[int, int]
                      ) -> List[Tuple[int, int, int, int, int]]:
        """(alpha, r1, r2, s1, s2) of each slot that `central_element`
        sums: the slots of the block's classes with these flags."""
        return [(*S, s1, s2) for f, S in self.reflections(label)
                if all(f[d - 1] == flag for d, flag in flags.items())
                for s1, s2 in self.slots(S.r1, S.r2)]

    def reflections(self, label: BlockLabel
                    ) -> List[Tuple[Tuple[int, int], ProjectiveSummand]]:
        """The block's classes, each tagged with its reflection flags.

        Reflecting copy i sends r_i to p_i - r_i and flips the sign; the
        classes are the reflections of (+1, r1, r2) that keep both ladder
        sizes in [1, p_i].  The corner-minus label (0, p2) thus has the
        one class (-1, p1, p2).  Copy 1 varies fastest.
        """
        self.block_kind(label)  # validates the label
        out = []
        for f2 in (0, 1):
            for f1 in (0, 1):
                r1 = self.p1 - label.r1 if f1 else label.r1
                r2 = self.p2 - label.r2 if f2 else label.r2
                if 1 <= r1 <= self.p1 and 1 <= r2 <= self.p2:
                    out.append(((f1, f2), ProjectiveSummand(
                        (-1) ** (f1 + f2), r1, r2)))
        return out

    def summands_of(self, label: BlockLabel) -> Tuple[ProjectiveSummand, ...]:
        """The block's distinct projective classes, copy 1 reflected
        first: the order of realization summands and block dumps."""
        return tuple(S for _, S in self.reflections(label))

    @staticmethod
    def slots(r1: int, r2: int) -> List[Tuple[int, int]]:
        """The idempotent slots (s1, s2) of a class, s1 outer and s2
        fastest: the order of the catalog and of block realizations."""
        return [(s1, s2) for s1 in range(1, r1 + 1) for s2 in range(1, r2 + 1)]

    def primitive_idempotent_catalog(
            self, label: Optional[BlockLabel] = None
    ) -> List[Tuple[str, int, int, int, int, int]]:
        """(kind, alpha, r1, r2, s1, s2) tuples, per block or for all.

        The classes of `summands_of`, read copy 2 fastest like the slots
        (s1, s2) within each class: an interior block lists its copy-2
        reflection before its copy-1 reflection.
        """
        if label is None:
            return [entry for lab in self.block_labels()
                    for entry in self.primitive_idempotent_catalog(lab)]
        kind = _IDEMPOTENT_KINDS[len(self.block_ladders(label))]
        return [(kind, alpha, r1, r2, s1, s2)
                for _, (alpha, r1, r2) in sorted(self.reflections(label))
                for s1, s2 in self.slots(r1, r2)]

    def ideal_basis(self, alpha: int, r1: int, r2: int,
                    s1: int, s2: int) -> List[NamedElement]:
        """Basis of the left ideal of the idempotent (alpha, r1, r2; s1,
        s2), family by family in the order of `ladder_families`, first
        index fastest."""
        out: List[NamedElement] = []
        for fam in self.ladder_families(r1, r2).values():
            h1, h2 = fam.sizes
            for i2 in range(h2):
                for i1 in range(h1):
                    out.append(self.build_named_element(
                        fam.family, fam.arrow, alpha, r1, r2, s1, s2, i1, i2))
        return out

    def block_idempotent(self, label: BlockLabel) -> AlgebraElement:
        """Sum of the block's primitive idempotents (a central idempotent)."""
        return sum((self.primitive_idempotent(*entry) for entry
                    in self.primitive_idempotent_catalog(label)),
                   self.algebra.zero())

    # ------------------------------------------------------------------
    # Verification: ladder relations
    # ------------------------------------------------------------------

    def family_weight(self, fam: LadderFamily, alpha: int,
                       i1: int, i2: int) -> CycloNumber:
        """K's eigenvalue on the family's element at (i1, i2): each slot
        contributes q_d^(h_d - 1 - 2 i_d), and each beyond-ladder slot
        flips the sign alpha."""
        h1, h2 = fam.sizes
        w = (self.params.q1_pow(h1 - 1 - 2 * i1)
             * self.params.q2_pow(h2 - 1 - 2 * i2))
        sign = alpha * (-1) ** fam.slots.count("k")
        return w if sign == 1 else -w

    def _elements_of_ideal(self, alpha: int, r1: int, r2: int,
                           s1: int, s2: int) -> Dict[tuple, NamedElement]:
        return {
            (el.family, el.arrow, el.idx1, el.idx2): el
            for el in self.ideal_basis(alpha, r1, r2, s1, s2)
        }

    class _Tally:
        """Aggregates one relation family across all its instances.

        ``derived`` names how an instance was decided without a product
        (one of the `_DERIVED` readings); the scope counts those."""

        def __init__(self):
            self.data: Dict[str, List] = {}

        def hit(self, slug: str, ok: bool, context: str = "",
                derived: str = ""):
            entry = self.data.setdefault(slug, [0, 0, "", 0, ""])
            entry[0] += 1
            if derived:
                entry[3] += 1
                entry[4] = derived
            if not ok:
                entry[1] += 1
                if not entry[2]:
                    entry[2] = context

        def checks(self, prefix: str, anchor: str,
                   ideals: int) -> List[Check]:
            out = []
            for slug in sorted(self.data):
                total, failed, context, derived, how = self.data[slug]
                detail = f"{total} instances; failures: {failed}"
                if failed and context:
                    detail += f"; first at {context}"
                scope = (f"exhaustive: {total} instances over the {ideals} "
                         f"primitive left ideals")
                if derived:
                    scope += f", {derived} {_DERIVED[how]}"
                out.append(Check(f"{prefix}.{slug}", failed == 0, detail,
                                 anchor, scope=scope))
            return out

    def verify_ladder_relations(self, label: BlockLabel) -> List[Check]:
        """Check every displayed generator-action relation on one block."""
        tally = self._Tally()
        catalog = self.primitive_idempotent_catalog(label)
        for _, alpha, r1, r2, s1, s2 in catalog:
            self._sweep_one_ideal(tally, alpha, r1, r2, s1, s2)
        checks = tally.checks(f"ladder[{label.r1},{label.r2}]",
                              anchor="ladder-relations", ideals=len(catalog))
        checks.extend(self._adjudication_checks(label))
        return checks

    def _sweep_one_ideal(self, tally: "_Tally", alpha: int,
                         r1: int, r2: int, s1: int, s2: int) -> None:
        self._build_action_table(alpha, r1, r2, s1, s2, tally)
        self._averager_cases(tally, alpha, r1, r2, s1, s2)
        self._alternate_expressions(tally, alpha, r1, r2, s1, s2)

    # ------------------------------------------------------------------
    # Action tables
    # ------------------------------------------------------------------

    def block_of(self, alpha: int, r1: int, r2: int) -> BlockLabel:
        """The block whose classes include (alpha, r1, r2)."""
        return next(label for label in self.block_labels()
                    if (alpha, r1, r2) in self.summands_of(label))

    def action_table(self, summand: ProjectiveSummand) -> ActionTable:
        """The action table of the summand's slot-(1, 1) ideal, the one
        the realization reads: kept from the ladder sweep, or built on
        demand when the sweep has not run."""
        table = self._tables.get(summand)
        if table is None:
            table = self._build_action_table(*summand, 1, 1)
        return table

    def generator_matrix(self, summand: ProjectiveSummand,
                         gen: str) -> Matrix:
        """Left multiplication by a generator on the summand's slot-(1, 1)
        ideal, read off its action table with no product: column c holds
        the displayed image of gen times basis vector c.  If any of the
        generator's products differs from its image, ArithmeticError names
        the failed `ladder[...]` check and the instance."""
        table = self.action_table(summand)
        for bad in table.failed:
            if bad.generator == gen:
                raise ArithmeticError(
                    f"left multiplication by {gen} on {summand} is not "
                    f"verified: {bad.check} fails at {bad.instance}")
        images = table.images[gen]
        return Matrix(self.params.field, len(images),
                      columns=dict(enumerate(images)))

    def ladder_failures(self, alpha: int, r1: int, r2: int, s1: int,
                        s2: int) -> Tuple[LadderFailure, ...]:
        """The failed relations of one left ideal's action table, kept
        for every ideal the sweep has read and built on demand otherwise."""
        failed = self._failures.get((alpha, r1, r2, s1, s2))
        if failed is None:
            failed = self._build_action_table(alpha, r1, r2, s1, s2).failed
        return failed

    def _sweep_failures(self, alpha: int, r1: int, r2: int, s1: int, s2: int,
                        generators: Collection[str],
                        columns: Collection[int]) -> List[LadderFailure]:
        """One ideal's `ladder_failures` on these generators and columns."""
        return [bad for bad in self.ladder_failures(alpha, r1, r2, s1, s2)
                if bad.generator in generators and bad.column in columns]

    def _sweep_premise(self, alpha: int, r1: int, r2: int, s1: int, s2: int,
                       gen: str, wants: Mapping[tuple, Dict]) -> str:
        """'' when the sweep shows gen x = want in A on the ideal (alpha,
        r1, r2; s1, s2) for every x: want of ``wants`` (each named (family,
        arrow, idx1, idx2), a want as {name: coefficient}), else why not.
        It shows it when its image of x is the want and its instance there
        passed.  Images read only the layout, which a class's slots share,
        so the kept slot-(1, 1) images serve every slot."""
        column = {name: c for c, name in enumerate(
            self._elements_of_ideal(alpha, r1, r2, s1, s2))}
        failed = self._sweep_failures(alpha, r1, r2, s1, s2, (gen,),
                                      {column[x] for x in wants})
        if failed:
            return f"premise {failed[0].check} fails at {failed[0].instance}"
        images = self.action_table(ProjectiveSummand(alpha, r1, r2)).images
        for x, want in wants.items():
            if images[gen][column[x]] != {column[y]: v
                                          for y, v in want.items()}:
                return (f"the sweep's image of {gen} × {x} at "
                        f"{_entry(alpha, r1, r2, s1, s2)} is not the target")
        return ""

    def _ideal_product(self, x: AlgebraElement, alpha: int, r1: int,
                       r2: int, s1: int, s2: int,
                       y: Mapping[int, CycloNumber]
                       ) -> Tuple[Dict[int, CycloNumber], str]:
        """x times the vector with coordinates ``y`` over the basis of the
        left ideal (alpha, r1, r2; s1, s2), as coordinates over that basis,
        with no product in A; and '' or the first failed premise.

        Proof.  x is a sum of terms c w 1_j, and (c w 1_j) y = c w (1_j
        y).  The sweep's weight instance shows K y_b = mu_b y_b for each
        basis vector y_b.  1_j = (1/korder) sum_l zeta^(-2jl) K^l, so 1_j
        y_b is y_b when mu_b = zeta^(2j) and 0 otherwise: K^korder = 1, so
        y_b = 0 or mu_b is a korder-th root of unity, and a sum over a full
        period of a root of unity other than 1 is 0.  Then w = e1^m1 e2^m2
        f1^n1 f2^n2 acts right letter first, and a letter g sends sum u_b
        y_b to sum u_b (g y_b), where the sweep's instance (g, b) shows
        g y_b = its displayed image, whose coordinates the action table
        holds.  So x y is the returned combination of the basis wherever
        every instance the walk read passed.  The images read only the
        layout, which a class's slots share, so the kept slot-(1, 1)
        images serve every slot; the premises are the read instances of
        this slot's sweep (`ladder_failures`).  Each word is walked once,
        on the sum of the terms that its projectors keep.
        """
        images = self.action_table(ProjectiveSummand(alpha, r1, r2)).images
        field, N = self.params.field, self.params.N
        read = {("K", b) for b in y}
        exponent = {b: field.root_exponent(images["K"][b][b]) for b in y}
        starts: Dict[tuple, Dict[int, CycloNumber]] = {}
        for key, c in x.terms.items():
            for b, yb in y.items():
                if exponent[b] is not None and (
                        exponent[b] - 2 * key[4]) % N == 0:
                    _accumulate(starts.setdefault(key[:4], {}), b, c * yb)
        out: Dict[int, CycloNumber] = {}
        for (m1, m2, n1, n2), u in starts.items():
            for gen, times in (("f2", n2), ("f1", n1), ("e2", m2),
                               ("e1", m1)):
                for _ in range(times):
                    moved: Dict[int, CycloNumber] = {}
                    for b, ub in u.items():
                        read.add((gen, b))
                        for d, v in images[gen][b].items():
                            _accumulate(moved, d, ub * v)
                    u = {d: v for d, v in moved.items() if not v.is_zero()}
            for b, ub in u.items():
                _accumulate(out, b, ub)
        failed = [bad for bad in self.ladder_failures(alpha, r1, r2, s1, s2)
                  if (bad.generator, bad.column) in read]
        premise = (f"premise {failed[0].check} fails at {failed[0].instance}"
                   if failed else "")
        return {b: v for b, v in out.items() if not v.is_zero()}, premise

    def _build_action_table(self, alpha: int, r1: int, r2: int, s1: int,
                            s2: int, tally: Optional["_Tally"] = None
                            ) -> ActionTable:
        """Compare g x with its displayed image (`_displayed_images`) for
        every basis vector x of one left ideal and each generator g.  Each
        comparison is one instance of a `ladder[...]` check, tallied into
        ``tally`` when one is given.

        Two kinds of instance are derived, with no product.  K's image is
        the family weight mu times x, and K x = mu x is read off x's keys
        (`_is_k_eigenvector`).  Where g x built a basis vector y = g x /
        ratio (`_predecessor`), the instance holds when the image is {y:
        ratio} and y is nonzero (`_value`).  Every other instance expands
        g x in A.

        The failures are kept for every ideal, the images for slot (1, 1)
        only: that is the ideal the realization reads.
        """
        label = self.block_of(alpha, r1, r2)
        where = _entry(alpha, r1, r2, s1, s2)
        basis = self.ideal_basis(alpha, r1, r2, s1, s2)
        values = [el.value for el in basis]
        column = {(el.family, el.arrow, el.idx1, el.idx2): c
                  for c, el in enumerate(basis)}
        built = {}
        for c, el in enumerate(basis):
            step = self._predecessor(el.family, el.arrow, alpha, r1, r2,
                                     el.idx1, el.idx2)
            if step is not None:
                gen, pred, ratio = step
                built[gen, column[pred]] = (c, ratio)
        # every entry is set below
        images: Dict[str, List[Dict[int, CycloNumber]]] = {
            g: [None] * len(basis) for g in ACTION_GENERATORS}
        failed: List[LadderFailure] = []
        one = self.params.field.one
        zero = self.algebra.zero()
        for gen, c, slug, image in self._displayed_images(alpha, r1, r2,
                                                          basis):
            made = built.get((gen, c))
            if gen == "K":
                derived = "weight"
                ok = self._is_k_eigenvector(values[c], image[c])
            elif made is None:
                derived = ""
                terms = [values[k] if v is one else values[k] * v
                         for k, v in image.items()]
                want = sum(terms[1:], terms[0]) if terms else zero
                ok = self._generators[gen] * values[c] == want
            else:
                derived = "built"
                target, ratio = made
                ok = image == {target: ratio} and not values[target].is_zero()
            images[gen][c] = image
            el = basis[c]
            # a tally keeps the instance of its first failure only
            context = "" if ok else (
                f"{(el.family, el.arrow, el.idx1, el.idx2)} in {where}")
            if tally is not None:
                tally.hit(slug, ok, context, derived)
            if not ok:
                failed.append(LadderFailure(
                    gen, c, f"ladder[{label.r1},{label.r2}].{slug}", context))
        table = ActionTable(images, tuple(failed))
        self._failures[(alpha, r1, r2, s1, s2)] = table.failed
        if (s1, s2) == (1, 1):
            self._tables[ProjectiveSummand(alpha, r1, r2)] = table
        return table

    def _is_k_eigenvector(self, x: AlgebraElement, mu: CycloNumber) -> bool:
        """K x = mu x, read off x's projector keys with no product.

        Proof.  K = sum_j zeta^(2j) 1_j, and 1_j (w 1_b) is w 1_b when j
        is the key's meeting index a (`Algebra.meeting_index`; the empty
        word times w is w) and 0 at every other j.  So K x is the sum of
        zeta^(2a) c w 1_b over the terms c w 1_b of x.  The keys are a
        basis and every c is nonzero, so K x = mu x exactly when zeta^(2a)
        = mu at every key.  With mu = zeta^k that is 2a = k (mod N); a mu
        that is no power of zeta equals no zeta^(2a), so then K x = mu x
        holds for x = 0 only.
        """
        k = self.params.field.root_exponent(mu)
        if k is None:
            return x.is_zero()
        meet, N = self.algebra.meeting_index, self.params.N
        return all((2 * meet(key) - k) % N == 0 for key in x.terms)

    def _displayed_images(self, alpha: int, r1: int, r2: int,
                          basis: List[NamedElement]):
        """(generator, column, check slug, image) for every basis vector
        and generator, the image as coordinates over ``basis``: K's is the
        family weight (`family_weight`) times the vector, e_d's and f_d's
        the ladder image (`_ladder_images`).  K comes first, then copy 1,
        then copy 2, each over the basis in order."""
        families = self.ladder_families(r1, r2)
        for c, el in enumerate(basis):
            w = self.family_weight(families[(el.family, el.arrow)], alpha,
                                   el.idx1, el.idx2)
            yield "K", c, "weight", {c: w}
        position = {(el.family, el.arrow, el.idx1, el.idx2): c
                    for c, el in enumerate(basis)}
        for d in (1, 2):
            yield from self._ladder_images(d, alpha, r1, r2, basis, position)

    def _ladder_images(self, d: int, alpha: int, r1: int, r2: int,
                       basis: List[NamedElement],
                       position: Dict[tuple, int]):
        """The displayed images of e_d and f_d on every basis vector: one
        move along copy d's ladder, with the phi-coefficients of the
        ladder (in-ladder labels) or of its reflection (beyond it), the
        normalization handoffs between roles, and the top role's shadow
        in the bottom role.  Every target exists: each role has every
        rung its moves reach, and the other copy's role and index stay."""
        P = self.params
        families = self.ladder_families(r1, r2)
        name_of_roles = {fam.roles: name for name, fam in families.items()}
        rd = r1 if d == 1 else r2
        max_n = rd - 1
        max_k = (self.p1 if d == 1 else self.p2) - rd - 1
        reflected = self._reflected(d, r1, r2)
        one = P.field.one

        for c, el in enumerate(basis):
            roles = list(families[(el.family, el.arrow)].roles)
            role = roles[d - 1]
            j = el.idx1 if d == 1 else el.idx2

            def at(target: str, rung: int, coeff: CycloNumber = one):
                """{column: coeff} of rung ``rung`` of role ``target``."""
                roles[d - 1] = target
                index = (rung, el.idx2) if d == 1 else (el.idx1, rung)
                return {position[name_of_roles[tuple(roles)] + index]: coeff}

            if role == "bottom":
                e = {} if j == 0 else at("bottom", j - 1,
                                         phi(P, d, alpha, j, r1, r2))
                f = {} if j == max_n else at("bottom", j + 1)
                slugs = ("lower.bottom", "raise.bottom")
            elif role == "left":
                e = {} if j == 0 else at("left", j - 1,
                                         phi(P, d, -alpha, j, *reflected))
                f = at("left", j + 1) if j < max_k else at("bottom", 0)
                slugs = ("lower.left", "raise.left-handoff")
            elif role == "top":
                e = (at("left", max_k) if j == 0 else
                     {**at("top", j - 1, phi(P, d, alpha, j, r1, r2)),
                      **at("bottom", j - 1)})
                f = at("top", j + 1) if j < max_n else at("right", 0)
                slugs = ("lower.top-with-shadow", "raise.top-handoff")
            else:  # right
                e = (at("bottom", max_n) if j == 0 else
                     at("right", j - 1, phi(P, d, -alpha, j, *reflected)))
                f = {} if j == max_k else at("right", j + 1)
                slugs = ("lower.right-reentry", "raise.right")
            yield f"e{d}", c, f"dir{d}.{slugs[0]}", e
            yield f"f{d}", c, f"dir{d}.{slugs[1]}", f

    def _averager_cases(self, tally: "_Tally", alpha: int, r1: int, r2: int,
                        s1: int, s2: int) -> None:
        """The four projection cases of the averager against block vectors:
        case 1 + (copy 1 beyond its ladder) + 2 (copy 2 beyond its
        ladder), case 1 split into the matching slot and the others.  The
        match reads v x = korder x, every other case v x = 0.

        Each case is read off x's projector keys, with no product.  The
        averager v is the one term korder 1_j0 (`weight_averager`), and
        1_j0 (w 1_b) is w 1_b when j0 is the key's meeting index
        (`Algebra.meeting_index`) and 0 otherwise, so v x is korder times
        the terms of x whose keys meet j0.  The keys are a basis and every
        coefficient is nonzero, so v x = korder x exactly when every key
        of x meets j0, and v x = 0 exactly when none does.  An averager
        that is not one such term fails every case, naming it.
        """
        families = self.ladder_families(r1, r2)
        elems = self._elements_of_ideal(alpha, r1, r2, s1, s2)
        where = _entry(alpha, r1, r2, s1, s2)
        v = self.weight_averager(alpha, r1, r2, s1, s2)
        P = self.params
        korder = P.korder
        j0, refused = None, f"averager {v!r} is not one term {korder} 1_j"
        if len(v) == 1:
            (key, coeff), = v.terms.items()
            if key[:4] == (0, 0, 0, 0) and coeff == P.rational(korder):
                j0, refused = key[4], ""
        meet = self.algebra.meeting_index
        for (family, arrow, i1, i2), el in elems.items():
            t1, t2 = families[(family, arrow)].slots
            case = 1 + (t1 == "k") + 2 * (t2 == "k")
            met = [meet(key) == j0 for key in el.value.terms]
            if case == 1 and (i1, i2) == (s1 - 1, s2 - 1):
                slug, ok = "match", all(met)
                context = f"{(family, arrow)} {where}"
            else:
                slug = "case1-off-slot" if case == 1 else f"case{case}"
                ok = not any(met)
                context = f"{(family, arrow, i1, i2)} {where}"
            tally.hit(f"averager.{slug}", ok and not refused,
                      f"{context}: {refused}" if refused else context,
                      "averager")

    def _alternate_expressions(self, tally: "_Tally", alpha: int,
                               r1: int, r2: int, s1: int, s2: int) -> None:
        """Re-derivations of the bottom row/column of the unnormalized
        family: at index 0 on each copy of a set of ladder copies, b is
        f_d times the corpus whose role there is left."""
        where = _entry(alpha, r1, r2, s1, s2)
        ladders = self.ladder_copies(r1, r2)
        for copies, slug in (((1,), "bottom-row"), ((2,), "bottom-column"),
                             ((1, 2), "bottom-corner")):
            if not set(copies) <= set(ladders):
                continue
            roles = tuple("left" if d in copies else "bottom" for d in (1, 2))
            corpus = self._corpus(alpha, r1, r2, s1, s2, *roles)
            for n1 in (range(1) if 1 in copies else range(r1)):
                for n2 in (range(1) if 2 in copies else range(r2)):
                    lhs = self.build_named_element(
                        "b", "down", alpha, r1, r2, s1, s2, n1, n2).value
                    rhs = self._prefix(0, 0, n1 + (1 in copies),
                                       n2 + (2 in copies)) * corpus
                    tally.hit(f"alternate.{slug}", lhs == rhs, where)

    # ------------------------------------------------------------------
    # Verification: misprint adjudications
    # ------------------------------------------------------------------

    def _adjudication_checks(self, label: BlockLabel) -> List[Check]:
        kind = self.block_kind(label)
        if kind in ("corner-plus", "corner-minus"):
            return []
        _, alpha, r1, r2, s1, s2 = self.primitive_idempotent_catalog(label)[0]
        slot = (alpha, r1, r2, s1, s2, label)
        if kind == "edge-2":
            return [self._adjudicate_scalar_reflection(label, 2, r1, r2)]
        checks = [self._adjudicate_top_exit(*slot),
                  self._adjudicate_scalar_reflection(label, 1, r1, r2)]
        if kind == "interior":
            checks += [self._adjudicate_left_normalizer_sign(*slot),
                       self._adjudicate_top_extra_summand(*slot),
                       self._adjudicate_left_lowering_coefficient(
                           alpha, r1, r2, label)]
        return checks

    def _adjudicate_top_exit(self, alpha: int, r1: int, r2: int,
                             s1: int, s2: int, label: BlockLabel) -> Check:
        """At the bottom rung the top family exits into the left family,
        not into itself as one display suggests: e1 × B/up(0, 0) = B/left(p1
        - r1 - 1, 0) is the sweep's `dir1.lower.top-with-shadow` instance
        on B/up(0, 0) (`_sweep_premise`).  The printed B/up(p1 - r1 - 1, 0)
        is compared with the corrected target as a named element."""
        printed_idx = self.p1 - r1 - 1
        corrected = ("B", "left", printed_idx, 0)
        failed = self._sweep_premise(
            alpha, r1, r2, s1, s2, "e1",
            {("B", "up", 0, 0): {corrected: self.params.field.one}})
        scope = (f"derived from ladder[{label.r1},{label.r2}].dir1.lower."
                 f"top-with-shadow: its instance e1 × B/up(0, 0) at "
                 f"{_entry(alpha, r1, r2, s1, s2)} has the corrected B/left"
                 f"({printed_idx}, 0) as image")
        detail = "corrected cross-family target verified; the printed "
        if printed_idx <= r1 - 1:
            elems = self._elements_of_ideal(alpha, r1, r2, s1, s2)
            coincide = (elems[("B", "up", printed_idx, 0)].value
                        == elems[corrected].value)
            detail += ("same-family target " + (
                "coincides at these parameters" if coincide else "differs"))
            scope += (f"; the printed B/up({printed_idx}, 0) is compared "
                      f"with it as a named element"
                      + (", and they coincide here" if coincide else ""))
        else:
            detail += "same-family index is out of range here"
            scope += (f"; the printed B/up({printed_idx}, 0) lies outside "
                      f"the {r1}-rung ladder, so it is not compared")
        return Check(f"adjudication[{label.r1},{label.r2}].top-exit-family",
                     not failed, failed or detail,
                     anchor="misprint-adjudication", scope=scope)

    def _adjudicate_scalar_reflection(self, label: BlockLabel, d: int,
                                      r1: int, r2: int) -> Check:
        """Raw-formula identity linking in-ladder and beyond-ladder scalars."""
        P = self.params
        rd = r1 if d == 1 else r2
        pd = P.p1 if d == 1 else P.p2
        instances = [(alpha, k) for alpha in (1, -1) for k in range(pd - rd)]
        bad = sum(_phi_formula(P, d, alpha, rd + k, r1, r2)
                  != _phi_formula(P, d, -alpha, k, *self._reflected(d, r1, r2))
                  for alpha, k in instances)
        return Check(
            f"adjudication[{label.r1},{label.r2}].ladder-scalar-reflection",
            bad == 0, f"{len(instances)} raw-formula instances; failures: {bad}",
            anchor="misprint-adjudication",
            scope=(f"exhaustive raw formula, no products: phi_{d}^alpha"
                   f"(r{d} + k) at ({r1}, {r2}) against phi_{d}^-alpha(k) at "
                   f"{self._reflected(d, r1, r2)}, alpha = ±1 and "
                   f"0 <= k < {pd - rd}"))

    def _adjudicate_left_normalizer_sign(self, alpha: int, r1: int, r2: int,
                                         s1: int, s2: int,
                                         label: BlockLabel) -> Check:
        """The left-family tail normalizers carry the flipped sign.

        Rebuilding the left family with same-sign phi factors must break
        the raising handoff into the bottom family whenever the two sign
        choices differ at all (they coincide when p2 is even).  That
        variant is expanded in A.  With flipped-sign tails (`_tail`'s
        default) the left family is the named B/left(k1, 0), whose raising
        handoff is a `dir1.raise.left-handoff` instance (`_sweep_premise`).
        """
        p1 = self.p1
        # The two sign choices differ only when some tail is nonempty and
        # the phi sign flip is visible, i.e. odd p2 and at least two rungs.
        if self.p2 % 2 == 0 or p1 - r1 < 2:
            why = (f"p2 = {self.p2} is even" if self.p2 % 2 == 0 else
                   f"the tail has p1 - r1 = {p1 - r1} < 2 rungs")
            return Check(
                f"adjudication[{label.r1},{label.r2}].left-normalizer-sign",
                True, "sign variants coincide at these parameters "
                "(empty normalizer tail or even second parameter)",
                anchor="misprint-adjudication",
                scope=(f"nothing compared: {why}, so the flipped-sign and "
                       f"same-sign normalizers coincide"))
        consts = self.scalar_constants(alpha, r1, r2)
        f1 = self.algebra.f(1)
        corpus = self._corpus(alpha, r1, r2, s1, s2, "left", "bottom")
        last = p1 - r1 - 1

        def same_sign(k1):
            tail = self._tail(1, alpha, r1, r2, k1, sign=+1)
            return (self._prefix(last - k1, 0, 0, 0) * corpus
                    / (consts.Phi * tail))

        bottom0 = self.build_named_element(
            "B", "down", alpha, r1, r2, s1, s2, 0, 0).value
        broken_printed = any([
            f1 * same_sign(k1) != (same_sign(k1 + 1) if k1 < last
                                   else bottom0)
            for k1 in range(p1 - r1)])
        one = self.params.field.one
        failed = self._sweep_premise(
            alpha, r1, r2, s1, s2, "f1",
            {("B", "left", k1, 0): {("B", "left", k1 + 1, 0) if k1 < last
                                    else ("B", "down", 0, 0): one}
             for k1 in range(p1 - r1)})
        detail = failed or (
            "flipped-sign normalizers satisfy the raising handoff; the "
            "same-sign variant " + ("breaks it" if broken_printed else
                                    "satisfies it too"))
        return Check(
            f"adjudication[{label.r1},{label.r2}].left-normalizer-sign",
            not failed and broken_printed, detail,
            anchor="misprint-adjudication",
            scope=(f"{p1 - r1} products in A at {_entry(alpha, r1, r2, s1, s2)}"
                   f": f1 × the left family with same-sign tails at 0 <= k1 "
                   f"< {p1 - r1}, each against its raising target; with "
                   f"flipped-sign tails it is B/left(k1, 0), derived from "
                   f"ladder[{label.r1},{label.r2}].dir1.raise.left-handoff"))

    def _adjudicate_top_extra_summand(self, alpha: int, r1: int, r2: int,
                                      s1: int, s2: int,
                                      label: BlockLabel) -> Check:
        """In the second-copy action on the top letter the extra summand
        keeps the first index and lowers the second one.

        e2 × T(i1, i2) = phi T(i1, i2 - 1) + B(i1, i2 - 1), i2 >= 1, is
        the sweep's `dir2.lower.top-with-shadow` instance on T(i1, i2)
        (`_sweep_premise`).  The printed reading puts B(i1 - 1, i2) for
        B(i1, i2 - 1), so it is refuted where those named elements differ.
        """
        elems = self._elements_of_ideal(alpha, r1, r2, s1, s2)
        P = self.params
        wants = {(family, arrow, i1, i2): {
            ("T", arrow, i1, i2 - 1): phi(P, 2, alpha, i2, r1, r2),
            ("B", arrow, i1, i2 - 1): P.field.one}
            for family, arrow, i1, i2 in elems if family == "T" and i2 >= 1}
        printed = [elems[("B", arrow, i1 - 1, i2)].value
                   != elems[("B", arrow, i1, i2 - 1)].value
                   for _, arrow, i1, i2 in wants if i1 >= 1]
        seen, printed_seen, printed_refuted = (len(wants), len(printed),
                                               any(printed))
        failed = self._sweep_premise(alpha, r1, r2, s1, s2, "e2", wants)
        detail = f"{seen} instances; " + (failed or (
            "corrected index verified"
            + ("; printed index refuted" if printed_refuted
               else "; printed index not separable at these parameters")))
        where = _entry(alpha, r1, r2, s1, s2)
        if not seen:
            scope = f"nothing compared: no T element has i2 >= 1 at {where}"
        else:
            scope = (f"derived from ladder[{label.r1},{label.r2}].dir2.lower."
                     f"top-with-shadow: its {seen} instances e2 × T(i1, i2), "
                     f"i2 >= 1, at {where} have the corrected summand "
                     f"B(i1, i2 - 1) in their image; ")
            if not printed_seen:
                scope += ("the printed B(i1 - 1, i2) needs i1 >= 1, which "
                          "none has, so it is not compared")
            else:
                scope += (f"the printed B(i1 - 1, i2) is compared with it "
                          f"as a named element on the {printed_seen} with "
                          f"i1 >= 1")
                if not printed_refuted:
                    scope += ", where the two readings coincide"
        return Check(
            f"adjudication[{label.r1},{label.r2}].top-extra-summand-index",
            not failed, detail, anchor="misprint-adjudication", scope=scope)

    def _adjudicate_left_lowering_coefficient(self, alpha: int, r1: int,
                                              r2: int,
                                              label: BlockLabel) -> Check:
        """The printed lowering coefficient on the doubly-left family uses
        the wrong middle label.  The corrected phi_1^-alpha(k1) at
        (p1 - r1, r2) is the scalar of the sweep's `dir1.lower.left`
        image of L/left at k1 >= 1, so the check passes when those
        instances, on every slot of the class, passed (`ladder_failures`);
        the printed coefficient is compared with the corrected one by raw
        formula, as a record."""
        P = self.params
        total = self.p1 - r1 - 1
        mismatch = sum(phi(P, 1, -alpha, k1, self.p1 - r1, r2)
                       != _phi_formula(P, 1, alpha, k1, r1, self.p2 - r2)
                       for k1 in range(1, self.p1 - r1))
        instances = failed = 0
        for s1, s2 in self.slots(r1, r2):
            lowered = {c for c, el in enumerate(
                self.ideal_basis(alpha, r1, r2, s1, s2))
                if (el.family, el.arrow) == ("L", "left") and el.idx1 >= 1}
            instances += len(lowered)
            failed += len(self._sweep_failures(alpha, r1, r2, s1, s2,
                                               ("e1",), lowered))
        premise = f"ladder[{label.r1},{label.r2}].dir1.lower.left"
        detail = (f"{total} coefficients; printed middle label disagrees on "
                  f"{mismatch}; {premise}: {failed} of {instances} instances "
                  f"with the corrected coefficient fail" if total else
                  "no beyond-ladder rungs here")
        scope = (f"derived from {premise}: its {instances} instances e1 × "
                 f"L/left(k1, i2), k1 >= 1, on the {r1 * r2} slots of "
                 f"({alpha:+d}, {r1}, {r2}) carry the corrected "
                 f"phi_1^-alpha(k1) at ({self.p1 - r1}, {r2}); the printed "
                 f"phi_1^alpha(k1) at ({r1}, {self.p2 - r2}) is compared "
                 f"with it by raw formula, 1 <= k1 < {self.p1 - r1}"
                 if total else
                 f"nothing compared: p1 - r1 = {self.p1 - r1} leaves no "
                 f"beyond-ladder rung k1 >= 1")
        return Check(
            f"adjudication[{label.r1},{label.r2}].left-lowering-coefficient",
            failed == 0, detail, anchor="misprint-adjudication", scope=scope)

    # ------------------------------------------------------------------
    # Verification: block decomposition
    # ------------------------------------------------------------------

    def _block_annihilators(self, label: BlockLabel):
        """(scalar, power) pairs for the two central elements on a block."""
        P = self.params
        kind = self.block_kind(label)
        two = P.rational(2)
        if kind == "corner-plus":
            return ((two, 1), (two, 1))
        if kind == "corner-minus":
            return ((two * (-1) ** P.p2, 1), (two * (-1) ** P.p1, 1))
        if kind == "edge-1":
            beta1 = casimir_eigenvalue(P, 1, SimpleModuleSpec(1, label.r1, P.p2))
            return ((beta1, 2), (two * (-1) ** (P.p1 + label.r1), 1))
        if kind == "edge-2":
            beta2 = casimir_eigenvalue(P, 2, SimpleModuleSpec(1, P.p1, label.r2))
            return ((two * (-1) ** (P.p2 + label.r2), 1), (beta2, 2))
        beta1 = casimir_eigenvalue(P, 1, SimpleModuleSpec(1, label.r1, label.r2))
        beta2 = casimir_eigenvalue(P, 2, SimpleModuleSpec(1, label.r1, label.r2))
        return ((beta1, 2), (beta2, 2))

    def verify_idempotents(self) -> List[Check]:
        """The primitive idempotents square to themselves, annihilate
        each other in both orders, and sum to 1.

        Each square is derived with no product.  An idempotent e is, by
        construction, the basis vector of its own left ideal at its slot
        (`_slot_name`), so its coordinates there are {that column: 1}, and
        e e is walked over the ideal's verified images (`_ideal_product`,
        whose proof and premises apply).  The square holds when the walk
        returns those coordinates.  An e that is not that basis vector, or
        a failed premise, fails the check, naming it.

        Orthogonality is derived from the other two, with no product.
        Left multiplication by an idempotent e is a projection, so its
        trace is its rank; these maps sum to the identity, so in
        characteristic 0 the ranks sum to dim A.  A = sum_e eA (x = sum_e
        ex), so that sum is direct; e_b = sum_a e_a e_b and e_b = e_b e_b
        in e_b A then force e_a e_b = 0 for a != b.  The check fails,
        naming it, when a premise fails.
        """
        A = self.algebra
        one = self.params.field.one
        idems = [(entry, self.primitive_idempotent(*entry))
                 for label in self.block_labels()
                 for entry in self.primitive_idempotent_catalog(label)]
        bad_square, premises = [], []
        for entry, e in idems:
            slot = entry[1:]
            elems = self._elements_of_ideal(*slot)
            name = self._slot_name(*slot[1:])
            column = list(elems).index(name)
            if elems[name].value != e:
                premise = f"{entry} is not its ideal's basis vector {name}"
            else:
                square, premise = self._ideal_product(e, *slot, {column: one})
                if not premise and square == {column: one}:
                    continue
            bad_square.append(entry)
            if premise:
                premises.append(premise)
        squares = Check(
            "blocks.idempotent-squares", not bad_square,
            f"{len(idems)} idempotents; failures: {bad_square or 'none'}"
            + "".join(f"; first: {why}" for why in premises[:1]),
            anchor="idempotent-squares",
            scope=f"derived: {len(idems)} idempotents, e × e walked right "
                  f"letter first over the verified images of e's own left "
                  f"ideal, no products; premises the ladder sweep's "
                  f"instances the walks read")
        resolution = Check(
            "blocks.resolution-of-identity",
            sum((e for _, e in idems), A.zero()) == A.one(),
            f"sum over {len(idems)} idempotents", anchor="identity-resolution",
            scope=f"exhaustive: the sum of {len(idems)} idempotents compared "
                  f"with 1 in the algebra")
        failed = [c.check_id for c in (squares, resolution) if not c.passed]
        pairs = len(idems) * (len(idems) - 1)
        orthogonal = Check(
            "blocks.pairwise-orthogonal", not failed,
            "; ".join(f"premise {name} fails" for name in failed)
            + "; orthogonality is derived from both premises" if failed else
            f"all {pairs} ordered pairs annihilate, derived from "
            f"blocks.idempotent-squares and blocks.resolution-of-identity",
            anchor="idempotent-orthogonality",
            scope=f"derived: {pairs} ordered pairs, no products")
        return [squares, orthogonal, resolution]

    def verify_blocks(self) -> List[Check]:
        """Block count and dimensions, central block idempotents, ideal
        ranks and the Casimirs' centrality; the annihilators and the
        socles are read off the ladder sweep (its tables are built here
        when the ideals suite has not run)."""
        checks: List[Check] = []
        P = self.params
        p1, p2 = self.p1, self.p2
        A = self.algebra
        field = P.field

        lhs = (2 * p1**2 * p2**2 * (1 + (p1 - 1) + (p2 - 1)
                                    + (p1 - 1) * (p2 - 1)))
        checks.append(Check(
            "blocks.dimension-identity", lhs == 2 * p1**3 * p2**3,
            f"{lhs} == {2 * p1**3 * p2**3}", anchor="block-dimension-count",
            scope="closed form, no algebra: the block dimensions summed by "
                  "kind against 2 p1^3 p2^3"))

        labels = self.block_labels()
        expected_blocks = ((p1 - 1) * (p2 - 1)) // 2 + (p1 - 1) + (p2 - 1) + 2
        checks.append(Check(
            "blocks.count", len(labels) == expected_blocks,
            f"{len(labels)} labels: {sorted(labels)}", anchor="block-count",
            scope=f"closed form, no algebra: {len(labels)} listed labels "
                  f"against the count formula"))

        block_idems = {label: self.block_idempotent(label) for label in labels}
        gens = [A.generator(g) for g in ("e1", "e2", "f1", "f2", "K")]
        central_bad = [
            label for label, E in block_idems.items()
            if any(E * g != g * E for g in gens)
        ]
        checks.append(Check(
            "blocks.block-idempotent-central", not central_bad,
            f"failures: {central_bad or 'none'}", anchor="block-idempotent",
            scope=f"exhaustive: {len(labels)} block idempotents × "
                  f"{len(gens)} generators, commutators in the algebra"))

        # Ideal dimensions and the global rank, sliced by the two-sided
        # K-eigenvalues (left weight, right averager ratio).
        slices: Dict[tuple, IncrementalSpan] = {}
        dim_detail = []
        total_vectors = 0
        catalog = self.primitive_idempotent_catalog()
        for entry in catalog:
            _, alpha, r1, r2, s1, s2 = entry
            # p_d rungs per full copy, 2 p_d per ladder copy
            ladders = self.ladder_copies(r1, r2)
            expected = ((2 if 1 in ladders else 1) * p1
                        * (2 if 2 in ladders else 1) * p2)
            local = IncrementalSpan(field)
            families = self.ladder_families(r1, r2)
            right_eig = self.averager_ratio(alpha, r1, r2, s1, s2).inverse()
            for el in self.ideal_basis(alpha, r1, r2, s1, s2):
                vec = {A.monomial_index(m): c for m, c in el.value.terms.items()}
                local.add(vec)
                lw = self.family_weight(families[(el.family, el.arrow)],
                                         alpha, el.idx1, el.idx2)
                slices.setdefault((lw, right_eig), IncrementalSpan(field)).add(vec)
                total_vectors += 1
            if local.rank != expected:
                dim_detail.append(f"{entry}: rank {local.rank} != {expected}")
        dims_ok = not dim_detail
        checks.append(Check(
            "blocks.ideal-dimensions", dims_ok,
            "; ".join(dim_detail) if dim_detail else
            f"{total_vectors} basis vectors across "
            f"{len(catalog)} left ideals", anchor="ideal-dimensions",
            scope=f"exhaustive: exact rank of each of the {len(catalog)} left "
                  f"ideals' bases, {total_vectors} vectors"))

        global_rank = sum(span.rank for span in slices.values())
        checks.append(Check(
            "blocks.total-rank", global_rank == A.dimension,
            f"rank {global_rank} over {len(slices)} two-sided weight "
            f"slices; algebra dimension {A.dimension}",
            anchor="decomposition-rank",
            scope=f"exhaustive: exact rank of all {total_vectors} basis "
                  f"vectors, one span per two-sided weight slice"))

        target = A.relation_target()
        casimirs = {i: casimir(P, i, target) for i in (1, 2)}
        for i, C in casimirs.items():
            commute_bad = sum(1 for g in gens if C * g != g * C)
            checks.append(Check(
                f"blocks.casimir-{i}-central", commute_bad == 0,
                f"commutators with all generators; failures: {commute_bad}",
                anchor="casimir-central",
                scope=f"exhaustive: {len(gens)} generators, commutators in "
                      f"the algebra"))

        checks.append(self._check_central_annihilators(labels))

        signatures = {}
        clash = []
        for label in labels:
            sig = tuple(c for c, _ in self._block_annihilators(label))
            if sig in signatures:
                clash.append((signatures[sig], label))
            signatures[sig] = label
        checks.append(Check(
            "blocks.scalar-signatures-separate", not clash,
            f"{len(labels)} blocks; clashes: {clash or 'none'}",
            anchor="block-scalars",
            scope=f"exhaustive, no algebra: the scalar pairs of all "
                  f"{len(labels)} blocks"))

        checks.append(self._check_beta_reflections())
        checks.append(self._check_socle_matrices(dims_ok))
        return checks

    def _check_central_annihilators(self, labels: List[BlockLabel]) -> Check:
        """Each block's annihilators (C_i - c_i)^m_i (`_block_annihilators`)
        kill every basis vector of its left ideals, derived with no product.

        On a class S, `casimir` is evaluated on the `matrix_target` of S's
        generator matrices (`generator_matrix`) and K's diagonal; write
        rho(p) for the value of an expression p there.  By induction on
        letters, column y of rho(p) holds the coordinates of p y over the
        ideal basis: for e_d and f_d column y is the displayed image of
        g y, which is g y in A where the sweep's instance passed; K^t is
        read as K^(t mod korder), which is K^t in A since K^korder = 1,
        and t mod korder passed weight instances give w_y^(t mod korder)
        y; sums and scalar multiples are linear; and (p q) y = p (q y) is
        column y of rho(p) rho(q).  So a zero (rho(C_i) - c_i)^m_i gives
        (C_i - c_i)^m_i y = 0 for every basis vector y, with no premise
        that the basis is independent.  The images read only the layout,
        which a class's slots share, so where every slot's instances
        passed (`ladder_failures`) the slot-(1, 1) matrices serve every
        slot.  A failure names the first failed premise, or the class, the
        copy and the first nonzero column.
        """
        P = self.params
        premises: List[str] = []
        bad: List[str] = []
        classes = vectors = 0
        for label in labels:
            annihilators = self._block_annihilators(label)
            for S in self.summands_of(label):
                slots = self.slots(S.r1, S.r2)
                failed = [f for s1, s2 in slots
                          for f in self.ladder_failures(*S, s1, s2)]
                if failed:
                    premises.append(f"premise {failed[0].check} fails at "
                                    f"{failed[0].instance}")
                    continue
                gens = {g: self.generator_matrix(S, g)
                        for g in ACTION_GENERATORS}
                K = gens.pop("K")
                target = matrix_target(P, gens,
                                       [K[c, c] for c in range(K.nrows)])
                classes += 1
                vectors += K.nrows * len(slots)
                for i, (c, m) in enumerate(annihilators, 1):
                    ann = (casimir(P, i, target) - target.one * c) ** m
                    if not ann.is_zero():
                        col = min(ann)
                        name = list(self._elements_of_ideal(*S, 1, 1))[col]
                        bad.append(f"block ({label.r1},{label.r2}), class "
                                   f"({S.alpha:+d},{S.r1},{S.r2}), copy {i}, "
                                   f"column {col} {name}")
        return Check(
            "blocks.central-annihilators", not premises and not bad,
            premises[0] if premises else
            f"{len(bad)} of {2 * classes} class and copy pairs not killed; "
            f"first: {bad[0]}" if bad else
            "every ideal basis vector killed by the block's "
            "(central - scalar)^power pair",
            anchor="central-annihilators",
            scope=f"derived: (C_i - c_i)^m_i, i = 1, 2, on the generator "
                  f"matrices of {classes} classes, for the {vectors} basis "
                  f"vectors of their left ideals, no products; premise the "
                  f"ladder sweep's instances on every slot of each class")

    def _check_beta_reflections(self) -> Check:
        P = self.params
        pairs = [((alpha, r1, r2), image)
                 for alpha in (1, -1)
                 for r1 in range(1, P.p1) for r2 in range(1, P.p2)
                 for image in ((-alpha, P.p1 - r1, r2),
                               (-alpha, r1, P.p2 - r2),
                               (alpha, P.p1 - r1, P.p2 - r2))]
        total = 2 * len(pairs)   # each reflection for both Casimirs
        bad = sum(casimir_eigenvalue(P, i, SimpleModuleSpec(*labels))
                  != casimir_eigenvalue(P, i, SimpleModuleSpec(*image))
                  for labels, image in pairs for i in (1, 2))
        return Check("blocks.casimir-scalar-reflections", bad == 0,
                     f"{total} identities; failures: {bad}",
                     anchor="block-scalars",
                     scope=f"exhaustive raw formula, no products: {total} "
                           f"reflections of the Casimir eigenvalues")

    def _check_socle_matrices(self, independent: bool) -> Check:
        """Generator actions on each bottom-family span match the simple
        module matrices entry for entry, derived with no product.

        The bottom family B/down has roles (bottom, bottom).  It is the
        last family of `ideal_basis`, n1 fastest: the flat order of the
        simple module (alpha, r1, r2).  Its displayed images stay inside
        it (K: the family weight; e_d: phi B(j - 1); f_d: B(j + 1)).  Where
        the sweep's instances on its columns passed, g x is its image in A
        for each generator g and B/down vector x.  Where the ideal's basis
        is independent (``independent``: `blocks.ideal-dimensions`), the
        image's entries are the unique coordinates of g x over B/down.  So
        each image is read against its `simple_action` column
        (`_sweep_premise`); a failure names the first premise or image.
        """
        problems = [] if independent else [
            "premise blocks.ideal-dimensions fails"]
        catalog = self.primitive_idempotent_catalog()
        images = 0
        for _, alpha, r1, r2, s1, s2 in catalog:
            spec = SimpleModuleSpec(alpha, r1, r2)
            bottom = [("B", "down", n1, n2)
                      for n2 in range(r2) for n1 in range(r1)]
            for gen in ACTION_GENERATORS:
                matrix = simple_action(self.params, spec, gen)
                problems.append(self._sweep_premise(
                    alpha, r1, r2, s1, s2, gen,
                    {x: {bottom[row]: v for row, v in matrix.get(c, {}).items()}
                     for c, x in enumerate(bottom)}))
                images += spec.dim
        problems = [why for why in problems if why]
        return Check(
            "blocks.socle-matches-simple-matrices", not problems,
            problems[0] if problems else
            f"{len(catalog)} ideals, five generators each, entry-for-entry",
            anchor="socle-simple-match",
            scope=(f"derived: {images} displayed images of the 5 "
                   f"generators on the bottom-family basis of each of "
                   f"{len(catalog)} left ideals, against the simple-module "
                   f"matrices, no products; premises the ladder sweep's "
                   f"instances on those columns and blocks.ideal-dimensions"))
