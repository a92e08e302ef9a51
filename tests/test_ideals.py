"""Tests for the ideal/idempotent layer.

The heavy exhaustive sweeps (every ladder relation on every block, the
full rank-432 decomposition) run at (2,3).  Misprint adjudications whose
printed and corrected variants coincide at small parameters are re-run
at the smallest parameter pairs where they separate: (3,4) for the
index misprints and (3,5) for the normalizer sign.
"""

import pytest
from conftest import A23, B23, decomposition_checks

from qpair.algebra import Algebra
from qpair.cyclo import Params
from qpair.ideals import BlockLabel, BlockSystem, NamedElement, ProjectiveSummand
from qpair.modules import phi
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
    assert check.scope.startswith(
        "derived from ladder[1,2].dir1.lower.left: its 4 products")
    _scale_ladder_images(monkeypatch, "dir1.lower.left", 2)
    check = BlockSystem(A34)._adjudicate_left_lowering_coefficient(
        1, 1, 2, label)
    assert not check.passed
    assert check.detail == (
        "1 coefficients; printed middle label disagrees on 1; "
        "ladder[1,2].dir1.lower.left: 4 of 4 products with the corrected "
        "coefficient fail")
