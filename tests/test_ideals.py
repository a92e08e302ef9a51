"""Tests for the ideal/idempotent layer.

The heavy exhaustive sweeps (every ladder relation on every block, the
full rank-432 decomposition) run at (2,3).  Misprint adjudications whose
printed and corrected variants coincide at small parameters are re-run
at the smallest parameter pairs where they separate: (3,4) for the
index misprints and (3,5) for the normalizer sign.  The socle match and
the adjudications read the ladder sweep; the products they used to
expand are kept here as references, at (2,3) and (3,2) for the socle and
at (3,4) and (4,3) for the adjudications.
"""

import hashlib
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from conftest import A23, B23, decomposition_checks

from qpair.algebra import Algebra, AlgebraElement, casimir
from qpair.cyclo import Params
from qpair.ideals import (ACTION_GENERATORS, BlockLabel, BlockSystem,
                          LadderFailure, NamedElement, ProjectiveSummand)
from qpair.linalg import IncrementalSpan
from qpair.modules import SimpleModuleSpec, phi, simple_action
from qpair.realization import Realization

# The left-ideal layout written out here, independently of ideals.py:
# letters T, L, R, B outside, arrows up, left, right, down inside; an
# up/down arrow or a T/B letter runs within its ladder (r values), the
# others beyond it (p - r values).
ARROW_ORDER = ("up", "left", "right", "down")
LETTER_ORDER = ("T", "L", "R", "B")


def _reference_families(p1, p2, r1, r2):
    """[(family, arrow, range of idx1, range of idx2)] of a class."""
    along1 = {"up": r1, "down": r1, "left": p1 - r1, "right": p1 - r1}
    along2 = {"up": r2, "down": r2, "left": p2 - r2, "right": p2 - r2}
    by_letter = {"T": r2, "B": r2, "L": p2 - r2, "R": p2 - r2}
    if (r1, r2) == (p1, p2):
        return [("B", "down", p1, p2)]
    if r2 == p2:    # edge-1: the arrows walk the first copy's ladder
        return [("B", a, along1[a], p2) for a in ARROW_ORDER]
    if r1 == p1:    # edge-2: the arrows walk the second copy's ladder
        return [("B", a, p1, along2[a]) for a in ARROW_ORDER]
    return [(X, a, along1[a], by_letter[X])
            for X in LETTER_ORDER for a in ARROW_ORDER]


def _reference_summands(B, label):
    """A block's projective classes in reading order, per block kind."""
    p1, p2 = B.p1, B.p2
    S = ProjectiveSummand
    kind = B.block_kind(label)
    if kind == "corner-plus":
        return (S(1, p1, p2),)
    if kind == "corner-minus":
        return (S(-1, p1, p2),)
    if kind == "edge-1":
        return (S(1, label.r1, p2), S(-1, p1 - label.r1, p2))
    if kind == "edge-2":
        return (S(1, p1, label.r2), S(-1, p1, p2 - label.r2))
    r1, r2 = label
    return (S(1, r1, r2), S(-1, p1 - r1, r2), S(-1, r1, p2 - r2),
            S(1, p1 - r1, p2 - r2))


def _system(pair):
    return B23 if pair == (2, 3) else BlockSystem(Algebra.for_pair(*pair))


def test_block_labels_and_kinds():
    labels = B23.block_labels()
    assert len(labels) == 6
    kinds = {tuple(lab): B23.block_kind(lab) for lab in labels}
    assert kinds == {
        (1, 1): "interior",
        (1, 3): "edge-1",
        (2, 1): "edge-2",
        (2, 2): "edge-2",
        (2, 3): "corner-plus",
        (0, 3): "corner-minus",
    }
    with pytest.raises(ValueError):
        B23.block_kind(BlockLabel(0, 1))


def test_idempotent_catalog_counts():
    # six primitive idempotents per block, 36 in total
    for lab in B23.block_labels():
        assert len(B23.primitive_idempotent_catalog(lab)) == 6
    assert len(B23.primitive_idempotent_catalog()) == 36


def test_averager_is_right_k_eigenvector():
    v = B23.weight_averager(1, 2, 3, 1, 1)
    # twelve K powers in the PBW basis, one stored projector term
    assert len(v.pbw_terms()) == 12
    assert len(v.terms) == 1
    K = A23.generator("K")
    ratio = B23.averager_ratio(1, 2, 3, 1, 1)
    assert v * K == v * ratio.inverse()
    # and the projection normalization: v * v = 2 p1 p2 v
    assert v * v == v * 12


def test_every_averager_is_one_term():
    # sum_l ratio^l K^l = korder * 1_j with lambda_j = zeta^(2j) = ratio^-1;
    # the closed form must equal the transform of its korder PBW terms
    for B in (B23, BlockSystem(Algebra.for_pair(3, 2)),
              BlockSystem(Algebra.for_pair(3, 4))):
        A, P = B.algebra, B.params
        count = 0
        for alpha in (1, -1):
            for r1 in range(1, A.p1 + 1):
                for r2 in range(1, A.p2 + 1):
                    for s1 in range(1, r1 + 1):
                        for s2 in range(1, r2 + 1):
                            v = B.weight_averager(alpha, r1, r2, s1, s2)
                            ratio = B.averager_ratio(alpha, r1, r2, s1, s2)
                            ((key, c),) = v.terms.items()
                            assert key[:4] == (0, 0, 0, 0)
                            assert c == P.rational(A.korder)
                            assert P.zeta(2 * key[4]) * ratio == P.one
                            assert v == A.element(
                                {A.monomial(0, 0, 0, 0, ell): ratio ** ell
                                 for ell in range(A.korder)})
                            count += 1
        assert count == 2 * sum(r1 * r2 for r1 in range(1, A.p1 + 1)
                                for r2 in range(1, A.p2 + 1))


def test_averager_refuses_an_odd_ratio(monkeypatch):
    # zeta^k with k odd is no K-eigenvalue's inverse: the averager would
    # be dense in the projector basis, not one term
    B = BlockSystem(Algebra.for_pair(2, 3))
    P = B.params
    for k in (1, 7, P.N - 1):
        monkeypatch.setattr(B, "averager_ratio", lambda *labels: P.zeta(k))
        with pytest.raises(ArithmeticError, match=f"zeta\\^{k} "):
            B.weight_averager(1, 2, 3, 1, 1)
    monkeypatch.setattr(B, "averager_ratio", lambda *labels: P.zeta(6))
    assert B.weight_averager(1, 2, 3, 1, 1).terms == {
        (0, 0, 0, 0, 9): P.rational(12)}


def test_averager_refuses_a_ratio_that_is_no_root(monkeypatch):
    # the ratio must be a power of zeta before its parity is read
    B = BlockSystem(Algebra.for_pair(2, 3))
    P = B.params
    for ratio in (P.one + P.zeta(1), P.rational(2), P.zeta(2) * Fraction(1, 3),
                  P.zero):
        monkeypatch.setattr(B, "averager_ratio", lambda *labels: ratio)
        with pytest.raises(ArithmeticError) as info:
            B.weight_averager(1, 2, 3, 1, 1)
        message = str(info.value)
        assert f"averager ratio {ratio!r} of (1, 2, 3, 1, 1)" in message
        assert "no power of zeta" in message


def test_label_validation():
    with pytest.raises(ValueError):
        B23.weight_averager(2, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        B23.weight_averager(1, 3, 1, 1, 1)
    with pytest.raises(ValueError):
        B23.weight_averager(1, 2, 3, 3, 1)  # s1 > r1
    with pytest.raises(ValueError):
        B23.build_named_element("L", "down", 1, 1, 3, 1, 1)  # edge has no L
    with pytest.raises(ValueError):
        B23.build_named_element("B", "left", 1, 2, 3, 1, 1)  # corner: down only
    with pytest.raises(ValueError):
        B23.build_named_element("B", "down", 1, 1, 1, 1, 1, idx1=1)
    with pytest.raises(ValueError):
        B23.primitive_idempotent("X-type", 1, 1, 3, 1, 1)
    with pytest.raises(ValueError):
        B23.primitive_idempotent("P-boundary", 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        B23.primitive_idempotent("P-interior", 1, 2, 3, 1, 1)


def test_named_element_fields_and_memoization():
    el = B23.build_named_element("T", "up", 1, 1, 1, 1, 1)
    assert isinstance(el, NamedElement)
    assert (el.family, el.arrow, el.alpha) == ("T", "up", 1)
    assert el.value == B23.build_named_element("T", "up", 1, 1, 1, 1, 1).value
    assert el is B23.build_named_element("T", "up", 1, 1, 1, 1, 1)


def test_scalar_constants_values():
    consts = B23.scalar_constants(1, 2, 3)
    # 2 p1 p2 times the product of the interior ladder coefficients
    P = Params(2, 3)
    expected = P.rational(12)
    for i1 in range(1, 2):
        expected = expected * phi(P, 1, 1, i1, 2, 3)
    for i2 in range(1, 3):
        expected = expected * phi(P, 2, 1, i2, 2, 3)
    assert consts.Phi == expected
    assert consts.gamma == () and consts.delta == ()


def test_scalar_constants_reflection_symmetry():
    # Phi and the Psi sums are invariant under the sign/width reflection
    B25 = BlockSystem(Algebra.for_pair(2, 5))
    for alpha in (1, -1):
        for r2 in (1, 2, 3, 4):
            a = B25.scalar_constants(alpha, 1, r2)
            b = B25.scalar_constants(-alpha, 1, 5 - r2)
            assert (a.Phi, a.Psi1, a.Psi2) == (b.Phi, b.Psi1, b.Psi2)


def test_idempotents_square():
    for kind, alpha, r1, r2, s1, s2 in (
        ("X-type", 1, 2, 3, 2, 3),
        ("X-type", -1, 2, 3, 1, 1),
        ("P-boundary", 1, 1, 3, 1, 2),
        ("P-boundary", -1, 2, 1, 2, 1),
        ("P-interior", 1, 1, 1, 1, 1),
        ("P-interior", -1, 1, 2, 1, 1),
    ):
        e = B23.primitive_idempotent(kind, alpha, r1, r2, s1, s2)
        assert not e.is_zero()
        assert e * e == e


def test_boundary_top_exit_relation_spot():
    # lowering the top family at its bottom rung crosses into the left family
    up = B23.build_named_element("B", "up", 1, 1, 3, 1, 1, 0, 1)
    left = B23.build_named_element("B", "left", 1, 1, 3, 1, 1, 0, 1)
    assert A23.e(1) * up.value == left.value
    assert up.value != left.value


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_family_order_and_index_ranges(pair):
    # every family accepts its last index pair and refuses one past it
    # in either slot; b has the ranges of B/down
    B = _system(pair)
    for label in B.block_labels():
        for alpha, r1, r2 in B.summands_of(label):
            ref = _reference_families(B.p1, B.p2, r1, r2)
            fams = B.ladder_families(r1, r2).values()
            assert [(f.family, f.arrow) + f.sizes for f in fams] == ref
            (bottom,) = [f for f in ref if f[:2] == ("B", "down")]
            for family, arrow, h1, h2 in ref + [("b", "down") + bottom[2:]]:
                def build(i1, i2):
                    return B.build_named_element(family, arrow, alpha, r1,
                                                 r2, 1, 1, i1, i2)
                assert not build(h1 - 1, h2 - 1).value.is_zero()
                with pytest.raises(ValueError):
                    build(h1, 0)
                with pytest.raises(ValueError):
                    build(0, h2)


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (2, 5), (3, 4)])
def test_catalog_reads_the_classes_of_summands_of(pair):
    # the catalog lists each class of summands_of as one run of slots
    # (s1 outer, s2 inner); it reads an interior block's reflections copy
    # 2 fastest, summands_of copy 1 fastest
    B = _system(pair)
    idempotent_kind = {"corner-plus": "X-type", "corner-minus": "X-type",
                       "edge-1": "P-boundary", "edge-2": "P-boundary",
                       "interior": "P-interior"}
    for label in B.block_labels():
        summands = B.summands_of(label)
        assert summands == _reference_summands(B, label)
        catalog = B.primitive_idempotent_catalog(label)
        runs = [ProjectiveSummand(*e[1:4]) for e in catalog if e[4:] == (1, 1)]
        order = (0, 2, 1, 3) if len(summands) == 4 else range(len(summands))
        assert runs == [summands[i] for i in order]
        assert catalog == [
            (idempotent_kind[B.block_kind(label)], *S, s1, s2)
            for S in runs for s1 in range(1, S.r1 + 1)
            for s2 in range(1, S.r2 + 1)]


def test_ideal_basis_sizes():
    assert len(B23.ideal_basis(1, 2, 3, 1, 1)) == 6
    assert len(B23.ideal_basis(1, 1, 3, 1, 1)) == 12
    assert len(B23.ideal_basis(1, 1, 1, 1, 1)) == 24


def test_ladder_relations_all_blocks():
    for lab in B23.block_labels():
        checks = B23.verify_ladder_relations(lab)
        bad = [c for c in checks if not c.passed]
        assert not bad, [c.row() for c in bad]


def test_block_decomposition_report():
    checks = decomposition_checks()
    bad = [c for c in checks if not c.passed]
    assert not bad, [c.row() for c in bad]
    ids = {c.check_id for c in checks}
    assert "blocks.total-rank" in ids
    assert "blocks.resolution-of-identity" in ids


def _idempotents(B):
    return [B.primitive_idempotent(*entry) for label in B.block_labels()
            for entry in B.primitive_idempotent_catalog(label)]


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_derived_orthogonality_matches_the_pair_loop(pair):
    # the loop the derived check replaced: both products of every pair of
    # distinct primitive idempotents, expanded in the algebra
    B = B23 if pair == (2, 3) else BlockSystem(Algebra.for_pair(*pair))
    idems = _idempotents(B)
    for i, ea in enumerate(idems):
        for eb in idems[i + 1:]:
            assert (ea * eb).is_zero() and (eb * ea).is_zero()
    squares, orthogonal, resolution = B.verify_idempotents()
    pairs = len(idems) * (len(idems) - 1)
    assert squares.passed and orthogonal.passed and resolution.passed
    assert orthogonal.detail == (
        f"all {pairs} ordered pairs annihilate, derived from "
        f"blocks.idempotent-squares and blocks.resolution-of-identity")
    assert orthogonal.scope == f"derived: {pairs} ordered pairs, no products"


def test_a_broken_idempotent_fails_orthogonality_by_its_premise(monkeypatch):
    # one term e1 moved from the first idempotent to the second keeps the
    # sum at 1 and breaks both squares; added to the first alone, it also
    # breaks the sum
    entries = [entry for label in B23.block_labels()
               for entry in B23.primitive_idempotent_catalog(label)]
    true = B23.primitive_idempotent
    e1 = A23.generator("e1")
    for moved, failed in (
            (True, "premise blocks.idempotent-squares fails"),
            (False, "premise blocks.idempotent-squares fails; premise "
                    "blocks.resolution-of-identity fails")):
        shifts = {entries[0]: e1, entries[1]: -e1 if moved else A23.zero()}

        def broken(*entry):
            out = true(*entry)
            return out + shifts[entry] if entry in shifts else out

        monkeypatch.setattr(B23, "primitive_idempotent", broken)
        squares, orthogonal, resolution = B23.verify_idempotents()
        assert not squares.passed and resolution.passed == moved
        assert not orthogonal.passed
        assert orthogonal.detail == (
            f"{failed}; orthogonality is derived from both premises")


def test_interior_sweep_at_2_5():
    # one interior ideal with a second-copy ladder deeper than one rung
    B25 = BlockSystem(Algebra.for_pair(2, 5))
    tally = B25._Tally()
    B25._sweep_one_ideal(tally, 1, 1, 2, 1, 1)
    checks = tally.checks("ladder[1,2]", anchor="ladder-relations", ideals=1)
    bad = [c for c in checks if not c.passed]
    assert not bad, [c.row() for c in bad]


def test_misprint_adjudications_where_separable():
    # the printed index/sign variants only differ from the corrected ones
    # at parameters with enough rungs; these are the smallest such pairs
    B34 = BlockSystem(Algebra.for_pair(3, 4))
    c = B34._adjudicate_top_extra_summand(1, 1, 2, 1, 1, BlockLabel(1, 2))
    assert c.passed and "printed index refuted" in c.detail
    c = B34._adjudicate_left_lowering_coefficient(1, 1, 2, BlockLabel(1, 2))
    assert "disagrees on 1" in c.detail

    B35 = BlockSystem(Algebra.for_pair(3, 5))
    c = B35._adjudicate_left_normalizer_sign(1, 1, 1, 1, 1, BlockLabel(1, 1))
    assert c.passed and "breaks it" in c.detail


def _scale_ladder_images(monkeypatch, slug, factor):
    """Make every displayed image of one ladder check ``factor`` times
    what the relations say: a wrong ladder scalar."""
    true = BlockSystem._ladder_images

    def wrong(self, *args):
        for gen, c, name, image in true(self, *args):
            if name == slug:
                image = {k: v * factor for k, v in image.items()}
            yield gen, c, name, image

    monkeypatch.setattr(BlockSystem, "_ladder_images", wrong)


def test_a_wrong_ladder_scalar_fails_its_check_and_the_generator_matrix(
        monkeypatch):
    _scale_ladder_images(monkeypatch, "dir2.lower.bottom", 2)
    swept = BlockSystem(A23)
    checks = [c for label in swept.block_labels()
              for c in swept.verify_ladder_relations(label)]
    assert {c.check_id.split(".", 1)[1] for c in checks
            if not c.passed} == {"dir2.lower.bottom"}
    # the full second copy of (+1, 1, 3) lowers B/up(0, 1) with a scalar;
    # the sweep's table and one built on demand both refuse the column
    summand = ProjectiveSummand(1, 1, 3)
    message = (r"^left multiplication by e2 on ProjectiveSummand\(alpha=1, "
               r"r1=1, r2=3\) is not verified: ladder\[1,3\]\.dir2\."
               r"lower\.bottom fails at \('B', 'up', 0, 1\) in "
               r"\(\+1,1,3;1,1\)$")
    for system in (swept, BlockSystem(A23)):
        real = Realization(system)
        with pytest.raises(ArithmeticError, match=message):
            real.generator_matrix(summand, "e2")
        assert real.generator_matrix(summand, "e1").nrows == 12


def test_left_lowering_coefficient_rests_on_the_sweep(monkeypatch):
    # the corrected coefficient is the scalar of dir1.lower.left on the
    # doubly-left family; a wrong scalar there fails the adjudication
    A34 = Algebra.for_pair(3, 4)
    label = BlockLabel(1, 2)
    check = BlockSystem(A34)._adjudicate_left_lowering_coefficient(
        1, 1, 2, label)
    assert check.passed
    assert check.scope == (
        "derived from ladder[1,2].dir1.lower.left: its 4 instances e1 × "
        "L/left(k1, i2), k1 >= 1, on the 2 slots of (+1, 1, 2) carry the "
        "corrected phi_1^-alpha(k1) at (2, 2); the printed phi_1^alpha(k1) "
        "at (1, 2) is compared with it by raw formula, 1 <= k1 < 2")
    _scale_ladder_images(monkeypatch, "dir1.lower.left", 2)
    check = BlockSystem(A34)._adjudicate_left_lowering_coefficient(
        1, 1, 2, label)
    assert not check.passed
    assert check.detail == (
        "1 coefficients; printed middle label disagrees on 1; "
        "ladder[1,2].dir1.lower.left: 4 of 4 instances with the corrected "
        "coefficient fail")


@pytest.mark.parametrize("pair, slug, also", [
    ((2, 3), "dir1.raise.top-handoff", set()),
    ((3, 4), "dir1.lower.left", {"left-lowering-coefficient"}),
])
def test_a_wrong_scalar_on_a_derived_instance_fails_its_check(
        monkeypatch, pair, slug, also):
    # every instance of the first slug, and each dir1.lower.left instance
    # at k1 >= 1, is derived: its product built the element it displays,
    # so only the displayed coefficient and the element's nonzero test
    # are checked there.  A wrong coefficient must still fail it, and
    # only it (the left-lowering adjudication reads dir1.lower.left).
    _scale_ladder_images(monkeypatch, slug, 2)
    B = BlockSystem(Algebra.for_pair(*pair))
    checks = [c for label in B.block_labels()
              for c in B.verify_ladder_relations(label)]
    bad = [c for c in checks if not c.passed]
    assert {c.check_id.split(".", 1)[1] for c in bad} == {slug} | also
    for c in bad:
        if c.check_id.endswith(slug):
            total, derived = map(int, re.match(
                r"exhaustive: (\d+) instances .*, (\d+) of them derived",
                c.scope).groups())
            assert derived and c.detail.startswith(
                f"{total} instances; failures: {derived};")
            assert (slug == "dir1.lower.left") == (derived < total)


def test_a_zero_element_fails_the_instances_that_built_it(monkeypatch):
    # with every corpus zero, every named element is zero: each product
    # instance then reads 0 = 0 and passes, and only the derived instances
    # fail, on their nonzero test
    derived = {c.check_id for label in B23.block_labels()
               for c in BlockSystem(A23).verify_ladder_relations(label)
               if "of them derived" in c.scope}
    monkeypatch.setattr(BlockSystem, "_corpus",
                        lambda self, *args: self.algebra.zero())
    B = BlockSystem(A23)
    bad = {c.check_id for label in B.block_labels()
           for c in B.verify_ladder_relations(label) if not c.passed}
    assert bad == derived and len(derived) == 21


def test_each_named_element_costs_one_generator_product(monkeypatch):
    B = BlockSystem(A23)
    gens = {id(x): g for g, x in B._generators.items()}
    products, prefix_callers = [], []
    true_mul, true_prefix = AlgebraElement.__mul__, BlockSystem._prefix

    def counted(x, y):
        if isinstance(y, AlgebraElement):
            products.append((gens.get(id(x)), id(y)))
        return true_mul(x, y)

    def traced(self, *exponents):
        prefix_callers.append(sys._getframe(1).f_code.co_name)
        return true_prefix(self, *exponents)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    monkeypatch.setattr(BlockSystem, "_prefix", traced)
    catalog = B.primitive_idempotent_catalog()
    bases = {entry: B.ideal_basis(*entry[1:]) for entry in catalog}
    # the build: one product per corpus (its core words times the
    # averager), and one generator times the predecessor per non-root
    steps = set()
    for (_, alpha, r1, r2, s1, s2), basis in bases.items():
        for el in basis:
            step = B._predecessor(el.family, el.arrow, alpha, r1, r2,
                                  el.idx1, el.idx2)
            if step is not None:
                gen, (family, arrow, j1, j2), _ = step
                pred = B.build_named_element(family, arrow, alpha, r1, r2,
                                             s1, s2, j1, j2)
                steps.add((gen, id(pred.value)))
    assert len(steps) == 312
    built = [key for key in products if key[0] is not None]
    assert len(built) == len(steps) and set(built) == steps
    assert len(products) - len(built) == len(B._corpora)
    assert prefix_callers == []
    # b is a scalar multiple of B/down
    del products[:]
    for _, alpha, r1, r2, s1, s2 in catalog:
        for i2 in range(r2):
            for i1 in range(r1):
                B.build_named_element("b", "down", alpha, r1, r2, s1, s2,
                                      i1, i2)
    assert products == []
    # the sweep makes every other e_d and f_d product once and none of
    # those the build made; it reads K's instances off the keys and
    # makes no K product
    for label in B.block_labels():
        B.verify_ladder_relations(label)
    swept = [key for key in products if key[0] is not None]
    assert len(swept) == len(set(swept)) and not steps & set(swept)
    assert set(swept) | steps == {
        (g, id(el.value)) for basis in bases.values() for el in basis
        for g in ACTION_GENERATORS if g != "K"}
    # prefix words times a corpus remain in the alternate expressions only
    # (the same-sign variant of left-normalizer-sign compares nothing here)
    assert set(prefix_callers) == {"_alternate_expressions"}


@lru_cache(maxsize=None)
def _swept(pair):
    """A block system whose ladder sweep has run on every block."""
    B = BlockSystem(Algebra.for_pair(*pair))
    for label in B.block_labels():
        B.verify_ladder_relations(label)
    return B


def _vector(A, x):
    return {A.monomial_index(m): c for m, c in x.terms.items()}


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_socle_check_matches_the_solved_products(pair):
    # the loop the derived check replaced: each generator times each
    # bottom-family vector expanded in A and solved over a tracked span of
    # that family, on every left ideal, against the displayed images the
    # check reads and the simple-module matrices
    B = _system(pair)
    A, field = B.algebra, B.params.field
    images_read = 0
    for label in B.block_labels():
        for entry in B.primitive_idempotent_catalog(label):
            _, alpha, r1, r2, s1, s2 = entry
            spec = SimpleModuleSpec(alpha, r1, r2)
            basis = B.ideal_basis(alpha, r1, r2, s1, s2)
            socle = len(basis) - spec.dim
            bottom = [B.build_named_element("B", "down", alpha, r1, r2, s1,
                                            s2, n1, n2)
                      for n2 in range(r2) for n1 in range(r1)]
            assert basis[socle:] == bottom
            span = IncrementalSpan(field, track=True)
            for el in bottom:
                span.add(_vector(A, el.value))
            images = {(gen, c - socle): {k - socle: v for k, v in image.items()}
                      for gen, c, _, image
                      in B._displayed_images(alpha, r1, r2, basis)
                      if c >= socle}
            for gen in ACTION_GENERATORS:
                matrix = simple_action(B.params, spec, gen)
                for col, el in enumerate(bottom):
                    coords = span.coordinates(
                        _vector(A, A.generator(gen) * el.value))
                    assert coords == images[gen, col], (entry, gen, col)
                    assert coords == matrix.get(col, {}), (entry, gen, col)
                    images_read += 1
    check = B._check_socle_matrices(True)
    ideals = len(B.primitive_idempotent_catalog())
    assert check.passed
    assert check.detail == (
        f"{ideals} ideals, five generators each, entry-for-entry")
    assert check.scope.startswith(f"derived: {images_read} displayed images")


def _expanded_adjudications(B, label):
    """{slug: (passed, detail)} of the adjudications whose products the
    derived checks no longer expand, from those products in A on the
    block's first slot."""
    kind = B.block_kind(label)
    _, alpha, r1, r2, s1, s2 = B.primitive_idempotent_catalog(label)[0]
    A, P, p1 = B.algebra, B.params, B.p1

    def named(family, arrow, i1, i2):
        return B.build_named_element(family, arrow, alpha, r1, r2, s1, s2,
                                     i1, i2).value

    out = {}
    k = p1 - r1 - 1
    if kind in ("edge-1", "interior"):
        lhs = A.e(1) * named("B", "up", 0, 0)
        printed = ("out of range here" if k > r1 - 1 else
                   "differs" if lhs != named("B", "up", k, 0) else
                   "coincides at these parameters")
        out["top-exit-family"] = (
            lhs == named("B", "left", k, 0),
            "corrected cross-family target verified; the printed "
            + ("same-family index is " if k > r1 - 1
               else "same-family target ") + printed)
    if kind != "interior":
        return out
    seen, ok, refuted = 0, True, False
    for el in B.ideal_basis(alpha, r1, r2, s1, s2):
        i1, i2 = el.idx1, el.idx2
        if el.family != "T" or i2 == 0:
            continue
        seen += 1
        lhs = A.e(2) * el.value
        shifted = named("T", el.arrow, i1, i2 - 1) * phi(P, 2, alpha, i2,
                                                          r1, r2)
        ok = ok and lhs == shifted + named("B", el.arrow, i1, i2 - 1)
        if i1 >= 1 and lhs != shifted + named("B", el.arrow, i1 - 1, i2):
            refuted = True
    out["top-extra-summand-index"] = (
        ok, f"{seen} instances; corrected index verified"
        + ("; printed index refuted" if refuted
           else "; printed index not separable at these parameters"))
    if B.p2 % 2 == 0 or k < 1:
        return out
    # the left family with flipped-sign tails is the named B/left(k1, 0)
    consts = B.scalar_constants(alpha, r1, r2)
    corpus = B._corpus(alpha, r1, r2, s1, s2, "left", "bottom")
    ok, broken = True, False
    for k1 in range(k + 1):
        variants = {sign: B._prefix(k - k1, 0, 0, 0) * corpus
                    / (consts.Phi * B._tail(1, alpha, r1, r2, k1, sign=sign))
                    for sign in (-1, 1)}
        assert variants[-1] == named("B", "left", k1, 0)
        raised = {sign: B._prefix(k - k1 - 1, 0, 0, 0) * corpus
                  / (consts.Phi * B._tail(1, alpha, r1, r2, k1 + 1,
                                          sign=sign)) if k1 < k
                  else named("B", "down", 0, 0) for sign in (-1, 1)}
        ok = ok and A.f(1) * variants[-1] == raised[-1]
        broken = broken or A.f(1) * variants[1] != raised[1]
    out["left-normalizer-sign"] = (
        ok and broken, "flipped-sign normalizers satisfy the raising "
        "handoff; the same-sign variant breaks it")
    return out


@pytest.mark.parametrize("pair", [(3, 4), (4, 3)])
def test_adjudications_match_the_expanded_products(pair):
    B = _swept(pair)
    compared = set()
    for label in B.block_labels():
        got = {c.check_id.split(".", 1)[1]: (c.passed, c.detail)
               for c in B._adjudication_checks(label)}
        for slug, want in _expanded_adjudications(B, label).items():
            assert got[slug] == want, (label, slug)
            compared.add(slug)
    assert len(compared) == (3 if pair == (4, 3) else 2)


@pytest.mark.parametrize("pair, digest", [
    ((3, 4), "1c0801f7626cddafbed023ced1b582f074bd6f52dfa4d3201ccb1aaa92e5fd8b"),
    ((4, 3), "dd14b125b86c9d0b54b29965c219b4ba8946f54b09a7b5a4c78dc0cc1294dc38"),
])
def test_adjudications_keep_their_rows(pair, digest):
    # ids, statuses and details of every block's adjudications, as they
    # were when each one expanded its products in A, except that the
    # left-lowering-coefficient detail counts the dir1.lower.left
    # instances it reads, not products
    B = _swept(pair)
    rows = [[c.check_id, c.status, c.detail] for label in B.block_labels()
            for c in B._adjudication_checks(label)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def test_derived_checks_make_no_product_after_the_sweep(monkeypatch):
    B = _swept((3, 4))
    true_mul = AlgebraElement.__mul__

    def scalar_only(x, y):
        assert not isinstance(y, AlgebraElement), "a product in the algebra"
        return true_mul(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", scalar_only)
    monkeypatch.setattr(IncrementalSpan, "coordinates", None)
    assert B._check_socle_matrices(True).passed
    assert B._check_central_annihilators(B.block_labels()).passed
    read = 0
    for label in B.block_labels():
        kind = B.block_kind(label)
        _, alpha, r1, r2, s1, s2 = B.primitive_idempotent_catalog(label)[0]
        if kind in ("edge-1", "interior"):
            assert B._adjudicate_top_exit(alpha, r1, r2, s1, s2,
                                          label).passed
            read += 1
        if kind == "interior":
            assert B._adjudicate_top_extra_summand(alpha, r1, r2, s1, s2,
                                                   label).passed
            read += 1
    assert read == 8


def _expanded_annihilator_failures(B):
    """The loop the derived annihilator check replaced: each block's two
    annihilators (C_i - c_i)^m_i times every basis vector of every left
    ideal of the block, in A.  Returns {(label, class, copy): {slot:
    the columns not killed}} over the pairs with a failure."""
    A = B.algebra
    casimirs = {i: casimir(B.params, i, A.relation_target()) for i in (1, 2)}
    out = {}
    for label in B.block_labels():
        anns = [(casimirs[i] - A.one() * c).power(m) for i, (c, m)
                in enumerate(B._block_annihilators(label), 1)]
        for _, alpha, r1, r2, s1, s2 in B.primitive_idempotent_catalog(label):
            for col, el in enumerate(B.ideal_basis(alpha, r1, r2, s1, s2)):
                for i, ann in enumerate(anns, 1):
                    if not (ann * el.value).is_zero():
                        out.setdefault(
                            (label, (alpha, r1, r2), i), {}).setdefault(
                            (s1, s2), []).append(col)
    return out


def _first_annihilator_failure(B, failures):
    """The detail the derived check gives for the loop's failures."""
    (label, (alpha, r1, r2), i), cols = next(iter(failures.items()))
    col = min(cols[1, 1])
    name = list(B._elements_of_ideal(alpha, r1, r2, 1, 1))[col]
    classes = sum(len(B.summands_of(lab)) for lab in B.block_labels())
    return (f"{len(failures)} of {2 * classes} class and copy pairs not "
            f"killed; first: block ({label.r1},{label.r2}), class "
            f"({alpha:+d},{r1},{r2}), copy {i}, column {col} {name}")


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (3, 4)])
def test_central_annihilators_match_the_pair_loop(pair):
    B = _swept(pair)
    check = B._check_central_annihilators(B.block_labels())
    assert _expanded_annihilator_failures(B) == {}
    assert check.passed
    assert check.detail == ("every ideal basis vector killed by the block's "
                            "(central - scalar)^power pair")
    vectors = B.algebra.dimension
    assert check.scope.startswith("derived: ")
    assert f"for the {vectors} basis vectors of their left ideals" in (
        check.scope)


def test_shifted_annihilator_scalars_fail_as_in_the_pair_loop(monkeypatch):
    # every block given the next block's scalars: the derived check and
    # the loop find the same class and copy pairs not killed, the same
    # columns on every slot of a class, and the same first column
    labels = B23.block_labels()
    true = BlockSystem._block_annihilators
    monkeypatch.setattr(BlockSystem, "_block_annihilators", lambda self, label:
                        true(self, labels[(labels.index(label) + 1)
                                          % len(labels)]))
    B = _swept((2, 3))
    failures = _expanded_annihilator_failures(B)
    for slots in failures.values():
        assert len(set(map(tuple, slots.values()))) == 1
    check = B._check_central_annihilators(labels)
    assert not check.passed
    assert check.detail == _first_annihilator_failure(B, failures)
    assert check.detail.startswith("17 of 24 class and copy pairs")


def test_a_wrong_annihilator_scalar_names_the_class_copy_and_column(
        monkeypatch):
    true = BlockSystem._block_annihilators

    def wrong(self, label):
        pairs = true(self, label)
        if label != BlockLabel(1, 1):
            return pairs
        (c1, m1), second = pairs
        return (c1 + 1, m1), second

    monkeypatch.setattr(BlockSystem, "_block_annihilators", wrong)
    B = _swept((2, 3))
    check = B._check_central_annihilators(B.block_labels())
    assert not check.passed
    assert check.detail == _first_annihilator_failure(
        B, _expanded_annihilator_failures(B))
    assert check.detail == (
        "4 of 24 class and copy pairs not killed; first: block (1,1), "
        "class (+1,1,1), copy 1, column 0 ('T', 'up', 0, 0)")


def test_a_failed_slot_premise_fails_the_annihilator_check():
    # a failure planted on slot (1, 2) of the class (+1, 1, 2): the
    # slot-(1, 1) matrices are fine, but they no longer speak for it
    B = BlockSystem(A23)
    planted = LadderFailure("e2", 0, "ladder[1,2].dir2.lower.top-with-shadow",
                            "('B', 'up', 0, 0) in (+1,1,2;1,2)")
    B._failures[1, 1, 2, 1, 2] = (planted,)
    check = B._check_central_annihilators(B.block_labels())
    assert not check.passed
    assert check.detail == (
        "premise ladder[1,2].dir2.lower.top-with-shadow fails at "
        "('B', 'up', 0, 0) in (+1,1,2;1,2)")


def test_a_failed_premise_fails_the_socle_check(monkeypatch):
    assert (BlockSystem(A23)._check_socle_matrices(False).detail
            == "premise blocks.ideal-dimensions fails")
    _scale_ladder_images(monkeypatch, "dir1.lower.bottom", 2)
    check = BlockSystem(A23)._check_socle_matrices(True)
    assert not check.passed
    assert check.detail == (
        "premise ladder[2,1].dir1.lower.bottom fails at ('B', 'down', 1, 0) "
        "in (+1,2,1;1,1)")


def test_a_wrong_simple_module_entry_fails_the_socle_check(monkeypatch):
    true = simple_action

    def wrong(params, spec, gen):
        out = true(params, spec, gen)
        if spec == SimpleModuleSpec(-1, 1, 3) and gen == "K":
            out.put(2, 2, out[2, 2] * 2)
        return out

    monkeypatch.setattr("qpair.ideals.simple_action", wrong)
    check = BlockSystem(A23)._check_socle_matrices(True)
    assert not check.passed
    assert check.detail == (
        "the sweep's image of K × ('B', 'down', 0, 2) at (-1,1,3;1,1) is "
        "not the target")


@pytest.mark.parametrize("slug, name, label", [
    ("dir1.lower.top-with-shadow", "top-exit-family", (1, 1)),
    ("dir2.lower.top-with-shadow", "top-extra-summand-index", (1, 2)),
    ("dir1.raise.left-handoff", "left-normalizer-sign", (1, 1)),
])
def test_a_wrong_ladder_scalar_fails_the_adjudication_it_supports(
        monkeypatch, slug, name, label):
    # each adjudication reads its corrected variant off the sweep at (4,3),
    # where every one of the three compares its printed variant
    _scale_ladder_images(monkeypatch, slug, 2)
    B = BlockSystem(Algebra.for_pair(4, 3))
    label = BlockLabel(*label)
    (check,) = [c for c in B._adjudication_checks(label)
                if c.check_id.endswith(f".{name}")]
    assert not check.passed
    premise = f"premise ladder[{label.r1},{label.r2}].{slug} fails at ("
    assert premise in check.detail
