"""The per-copy ladder model against the per-kind formulas it replaced.

`BlockSystem` builds every named element, and `Realization` predicts
every action matrix, occupied cell and repeated sub-block pair, from one
template per copy.  The references below are written out per class kind
(corner, edge-1, edge-2, interior), one arm each, the way the displays
state them; they share nothing with the product code except the scalar
constants, the averager, the phi normalizers and the flat layout.  Every
predicted matrix of every block is compared at (2,3) and (3,2), and every
named element, b included, also at (3,4).  The references build each
element as a prefix word times a corpus; `BlockSystem` builds only the
family roots that way and every other element from its ladder
predecessor.
"""

import pytest
from conftest import R23

from qpair.algebra import Algebra
from qpair.ideals import BlockSystem
from qpair.linalg import Matrix
from qpair.modules import phi
from qpair.realization import Realization

LETTERS = ("T", "L", "R", "B")
ARROWS = ("up", "left", "right", "down")
LETTER_FOR = dict(zip(ARROWS, LETTERS))


def _realization(pair):
    return R23 if pair == (2, 3) else Realization(
        BlockSystem(Algebra.for_pair(*pair)))


def _class_kind(B, r1, r2):
    if (r1, r2) == (B.p1, B.p2):
        return "corner"
    if r2 == B.p2:
        return "edge-1"
    if r1 == B.p1:
        return "edge-2"
    return "interior"


class ReferenceElements:
    """Named-element values from one formula arm per class kind."""

    def __init__(self, B):
        self.B = B
        self.A = B.algebra
        self.memo = {}

    def corpus(self, alpha, r1, r2, s1, s2, sum1, sum2):
        """The core word times the averager; sum_i None puts the plain top
        power in slot i, an offset sums the gamma/delta tail."""
        B, A = self.B, self.A
        consts = B.scalar_constants(alpha, r1, r2)
        one = B.params.field.one
        if sum1 is None:
            terms1 = [(one, B.p1 - 1, B.p1 - s1)]
        else:
            terms1 = [(consts.gamma[m - 1], B.p1 - sum1 - m, B.p1 - s1 - m)
                      for m in range(1, B.p1 - r1 + 1)]
        if sum2 is None:
            terms2 = [(one, B.p2 - 1, B.p2 - s2)]
        else:
            terms2 = [(consts.delta[m - 1], B.p2 - sum2 - m, B.p2 - s2 - m)
                      for m in range(1, B.p2 - r2 + 1)]
        words = {A.monomial(a1, a2, b1, b2, 0): c1 * c2
                 for c1, a1, b1 in terms1 for c2, a2, b2 in terms2}
        return A.element(words) * B.weight_averager(alpha, r1, r2, s1, s2)

    def tail1(self, alpha, r1, r2, k1):
        out = self.B.params.field.one
        for j in range(k1 + 1, self.B.p1 - r1):
            out = out * phi(self.B.params, 1, -alpha, j, self.B.p1 - r1, r2)
        return out

    def tail2(self, alpha, r1, r2, k2):
        out = self.B.params.field.one
        for j in range(k2 + 1, self.B.p2 - r2):
            out = out * phi(self.B.params, 2, -alpha, j, r1, self.B.p2 - r2)
        return out

    def prefix(self, m1, m2, n1, n2):
        return self.A.monomial_element(self.A.monomial(m1, m2, n1, n2, 0))

    def value(self, family, arrow, alpha, r1, r2, s1, s2, i1, i2):
        key = (family, arrow, alpha, r1, r2, s1, s2, i1, i2)
        if key not in self.memo:
            self.memo[key] = self._value(*key)
        return self.memo[key]

    def _value(self, family, arrow, alpha, r1, r2, s1, s2, i1, i2):
        kind = _class_kind(self.B, r1, r2)
        consts = self.B.scalar_constants(alpha, r1, r2)
        p1, p2 = self.B.p1, self.B.p2
        pre, cor = self.prefix, self.corpus
        t1, t2 = self.tail1, self.tail2
        slot = (alpha, r1, r2, s1, s2)

        def lf(fam, arr, j1, j2):
            return self.value(fam, arr, *slot, j1, j2)

        if family == "b":
            return pre(0, 0, i1, i2) * cor(*slot, None, None)
        if (family, arrow) == ("B", "down"):
            return lf("b", "down", i1, i2) / consts.Phi
        if kind in ("edge-1", "interior") and family == "B":
            if arrow == "left":
                return (pre(p1 - r1 - 1 - i1, 0, 0, i2) * cor(*slot, 0, None)
                        / (consts.Phi * t1(alpha, r1, r2, i1)))
            if arrow == "up":
                return (pre(0, 0, i1, i2) * cor(*slot, 1, None) / consts.Phi
                        - lf("B", "down", i1, i2) * consts.Psi1)
            return pre(0, 0, r1 + i1, 0) * lf("B", "up", 0, i2)
        if kind == "edge-2":
            if arrow == "left":
                return (pre(0, p2 - r2 - 1 - i2, i1, 0) * cor(*slot, None, 0)
                        / (consts.Phi * t2(alpha, r1, r2, i2)))
            if arrow == "up":
                return (pre(0, 0, i1, i2) * cor(*slot, None, 1) / consts.Phi
                        - lf("B", "down", i1, i2) * consts.Psi2)
            return pre(0, 0, 0, r2 + i2) * lf("B", "up", i1, 0)
        if family == "L":
            if arrow == "down":
                return (pre(0, p2 - r2 - 1 - i2, i1, 0) * cor(*slot, None, 0)
                        / (consts.Phi * t2(alpha, r1, r2, i2)))
            if arrow == "left":
                return (pre(p1 - r1 - 1 - i1, p2 - r2 - 1 - i2, 0, 0)
                        * cor(*slot, 0, 0)
                        / (consts.Phi * t1(alpha, r1, r2, i1)
                           * t2(alpha, r1, r2, i2)))
            if arrow == "up":
                return (pre(0, p2 - r2 - 1 - i2, i1, 0) * cor(*slot, 1, 0)
                        / (consts.Phi * t2(alpha, r1, r2, i2))
                        - lf("L", "down", i1, i2) * consts.Psi1)
            return pre(0, 0, r1 + i1, 0) * lf("L", "up", 0, i2)
        if family == "T":
            if arrow == "down":
                return (pre(0, 0, i1, i2) * cor(*slot, None, 1) / consts.Phi
                        - lf("B", "down", i1, i2) * consts.Psi2)
            if arrow == "left":
                return (pre(p1 - r1 - 1 - i1, 0, 0, i2) * cor(*slot, 0, 1)
                        / (consts.Phi * t1(alpha, r1, r2, i1))
                        - lf("B", "left", i1, i2) * consts.Psi2)
            if arrow == "up":
                combined = (cor(*slot, 1, 1)
                            - cor(*slot, None, 1) * consts.Psi1
                            - cor(*slot, 1, None) * consts.Psi2
                            + cor(*slot, None, None)
                            * (consts.Psi1 * consts.Psi2))
                return pre(0, 0, i1, i2) * combined / consts.Phi
            return pre(0, 0, r1 + i1, 0) * lf("T", "up", 0, i2)
        assert family == "R"
        return pre(0, 0, 0, r2 + i2) * lf("T", arrow, i1, 0)


# The one-direction shape template: (row, column) group positions in the
# arrow order up, left, right, down.  It describes a boundary ideal
# directly and an interior ideal twice (letters outside, arrows inside).
SHAPE_CELLS = (
    (0, 0), (3, 3),
    (1, 0), (2, 0), (3, 0),
    (1, 1), (2, 2),
    (3, 1), (3, 2),
)


def _old_ladder_cells(sign, low, size):
    high = size - low
    tags = (
        ("up", sign, low), ("up", sign, low),
        ("left", sign, low), ("right", sign, low), ("down", sign, low),
        ("up", -sign, high), ("up", -sign, high),
        ("right", -sign, high), ("left", -sign, high),
    )
    return tuple((rc[0], rc[1]) + tag for rc, tag in zip(SHAPE_CELLS, tags))


def reference_expected_matrix(R, el, summand):
    lay = R.layout(summand)
    kind = _class_kind(R.system, summand.r1, summand.r2)
    one = R.params.field.one
    out = Matrix(R.params.field, lay.dim)

    def put(rfam, rarrow, cfam, carrow):
        out.put(lay.flat(rfam, rarrow, el.idx1, el.idx2),
                lay.flat(cfam, carrow, el.s1 - 1, el.s2 - 1), one)

    if kind == "corner":
        if el.alpha == summand.alpha:
            put("B", "down", "B", "down")
    elif kind == "edge-1":
        for ri, ci, arrow, sg, lab in _old_ladder_cells(
                summand.alpha, summand.r1, R.p1):
            if el.arrow == arrow and el.alpha == sg and el.r1 == lab:
                put("B", ARROWS[ri], "B", ARROWS[ci])
    elif kind == "edge-2":
        for ri, ci, arrow, sg, lab in _old_ladder_cells(
                summand.alpha, summand.r2, R.p2):
            if el.arrow == arrow and el.alpha == sg and el.r2 == lab:
                put("B", ARROWS[ri], "B", ARROWS[ci])
    else:
        for RI, CI, larrow, sg2, lab2 in _old_ladder_cells(
                summand.alpha, summand.r2, R.p2):
            if el.family != LETTER_FOR[larrow] or el.r2 != lab2:
                continue
            for ri, ci, arrow, sg1, lab1 in _old_ladder_cells(
                    sg2, summand.r1, R.p1):
                if el.arrow == arrow and el.alpha == sg1 and el.r1 == lab1:
                    put(LETTERS[RI], ARROWS[ri], LETTERS[CI], ARROWS[ci])
    return out


def reference_occupied_cells(R, summand):
    kind = _class_kind(R.system, summand.r1, summand.r2)
    if kind == "corner":
        return {(("B", "down"), ("B", "down"))}
    if kind in ("edge-1", "edge-2"):
        return {(("B", ARROWS[ri]), ("B", ARROWS[ci]))
                for ri, ci in SHAPE_CELLS}
    return {((LETTERS[RI], ARROWS[ri]), (LETTERS[CI], ARROWS[ci]))
            for RI, CI in SHAPE_CELLS for ri, ci in SHAPE_CELLS}


def reference_repeat_partners(R, summand):
    kind = _class_kind(R.system, summand.r1, summand.r2)
    if kind == "corner":
        return set()
    if kind in ("edge-1", "edge-2"):
        return {
            ((("B", "up"), ("B", "up")), (("B", "down"), ("B", "down"))),
            ((("B", "left"), ("B", "left")), (("B", "right"), ("B", "right"))),
        }
    pairs = set()
    for a in ARROWS:
        for b in ARROWS:
            pairs.add(((("T", a), ("T", b)), (("B", a), ("B", b))))
            pairs.add(((("L", a), ("L", b)), (("R", a), ("R", b))))
    for X in LETTERS:
        for Y in LETTERS:
            pairs.add((((X, "up"), (Y, "up")), ((X, "down"), (Y, "down"))))
            pairs.add((((X, "left"), (Y, "left")),
                       ((X, "right"), (Y, "right"))))
    return pairs


def _block_elements(B, label):
    """Every ideal basis element of the block, slot by slot."""
    for _, alpha, r1, r2, s1, s2 in B.primitive_idempotent_catalog(label):
        yield from B.ideal_basis(alpha, r1, r2, s1, s2)


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (3, 4)])
def test_every_named_element_matches_the_per_kind_formulas(pair):
    # at (3,4) both copies have ladders of two or more rungs and the left
    # roles reach three, so every step of `_predecessor` is taken
    B = _realization(pair).system
    ref = ReferenceElements(B)
    count = 0
    for label in B.block_labels():
        for el in _block_elements(B, label):
            key = (el.family, el.arrow, el.alpha, el.r1, el.r2, el.s1,
                   el.s2, el.idx1, el.idx2)
            assert el.value == ref.value(*key), key
            count += 1
        for _, alpha, r1, r2, s1, s2 in B.primitive_idempotent_catalog(label):
            for i2 in range(r2):
                for i1 in range(r1):
                    key = ("b", "down", alpha, r1, r2, s1, s2, i1, i2)
                    assert (B.build_named_element(*key).value
                            == ref.value(*key)), key
    assert count == B.algebra.dimension


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_every_predicted_matrix_matches_the_per_kind_template(pair):
    R = _realization(pair)
    B = R.system
    for label in B.block_labels():
        summands = B.summands_of(label)
        for S in summands:
            assert R.occupied_cells(S) == reference_occupied_cells(R, S)
            partners = R._repeat_partners(S)
            assert len(set(partners)) == len(partners)
            assert set(partners) == reference_repeat_partners(R, S)
        for el in _block_elements(B, label):
            for S in summands:
                assert (R.expected_matrix(el, S)
                        == reference_expected_matrix(R, el, S)), (el, S)
