"""The readings that replaced products in A, against those products.

Four kinds of check are decided off the projector keys and the verified
summand matrices, with no element product: the K-weight instances and
the averager cases of the ladder sweep, the idempotent squares, and the
commutation and drop-square rows of the center suite.  The loops they
replaced are kept here as references, instance for instance, at (2,3),
(3,2) and (3,4).  The center suite reads each central element as
coordinates over its block's degree-zero elements; the loop that
represented each central element is its reference at the same pairs.
Mutations show that each reading still fails where the product does,
and work counts pin that the suites make no such product and that the
center suite represents no central element.
"""

from functools import lru_cache

import pytest

from qpair.algebra import Algebra, AlgebraElement
from qpair.cli import Session, run
from qpair.ideals import BlockLabel, BlockSystem, LadderFailure
from qpair.linalg import IncrementalSpan
from qpair.realization import GENERATOR_NAMES, Realization
from qpair.report import RunConfig

PAIRS = [(2, 3), (3, 2), (3, 4)]


@lru_cache(maxsize=None)
def _swept(pair):
    """A block system whose ladder sweep has run on every block."""
    B = BlockSystem(Algebra.for_pair(*pair))
    for label in B.block_labels():
        B.verify_ladder_relations(label)
    return B


@lru_cache(maxsize=None)
def _whole(pair):
    """The report of `verify --suite all`."""
    return run(RunConfig(p1=pair[0], p2=pair[1], suites=("all",)))[1]


def _slots(B):
    return [entry[1:] for label in B.block_labels()
            for entry in B.primitive_idempotent_catalog(label)]


class _Record:
    """A tally that keeps every instance, in order."""

    def __init__(self):
        self.hits = []

    def hit(self, slug, ok, context="", derived=""):
        self.hits.append((slug, ok, context))


def _family_weights(B, slot):
    families = B.ladder_families(*slot[1:3])
    return [B.family_weight(families[(el.family, el.arrow)], slot[0],
                            el.idx1, el.idx2)
            for el in B.ideal_basis(*slot)]


# ----------------------------------------------------------------------
# weight instances
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pair", PAIRS)
def test_weight_readings_match_the_k_products(pair):
    # the loop the reading replaced: K times each basis vector expanded in
    # A against its family weight, and against wrong eigenvalues (another
    # weight of the ideal, the negated weight, and a non-root of unity)
    B = _swept(pair)
    A, field = B.algebra, B.params.field
    K = A.generator("K")
    compared = 0
    for slot in _slots(B):
        weights = _family_weights(B, slot)
        others = sorted(set(weights), key=repr)[:2]
        for el, w in zip(B.ideal_basis(*slot), weights):
            x = el.value
            Kx = K * x
            for mu in (w, -w, w * 2, *others):
                assert (Kx == x * mu) == B._is_k_eigenvector(x, mu), (
                    slot, el, mu)
                compared += 1
    assert compared >= 5 * A.dimension
    assert B._is_k_eigenvector(A.zero(), field.one * 2)
    # a sum of two vectors of different weights is no eigenvector, though
    # each of its keys meets one of the weights
    for slot in _slots(B)[:3]:
        weights = _family_weights(B, slot)
        basis = B.ideal_basis(*slot)
        b = next(i for i, w in enumerate(weights) if w != weights[0])
        x = basis[0].value + basis[b].value
        for mu in (weights[0], weights[b]):
            assert not B._is_k_eigenvector(x, mu)
            assert K * x != x * mu


def test_a_wrong_family_weight_fails_where_the_product_does(monkeypatch):
    # one family's weight times zeta^2: the weight row of its blocks fails,
    # first at the instance the product reference names first
    A = Algebra.for_pair(3, 4)
    zeta2 = A.field.zeta(2)
    true = BlockSystem.family_weight

    def patched(self, fam, alpha, i1, i2):
        w = true(self, fam, alpha, i1, i2)
        return w * zeta2 if (fam.family, fam.arrow) == ("B", "up") else w

    monkeypatch.setattr(BlockSystem, "family_weight", patched)
    B = BlockSystem(A)
    K = A.generator("K")
    failing = 0
    for label in B.block_labels():
        first, count = None, 0
        for slot in (entry[1:] for entry
                     in B.primitive_idempotent_catalog(label)):
            for el, w in zip(B.ideal_basis(*slot), _family_weights(B, slot)):
                if K * el.value != el.value * w:
                    count += 1
                    if first is None:
                        first = (f"{(el.family, el.arrow, el.idx1, el.idx2)}"
                                 f" in ({slot[0]:+d},{slot[1]},{slot[2]};"
                                 f"{slot[3]},{slot[4]})")
        rows = {c.check_id: c for c in B.verify_ladder_relations(label)}
        weight = rows[f"ladder[{label.r1},{label.r2}].weight"]
        assert weight.passed == (first is None), label
        if first is not None:
            failing += 1
            assert weight.detail.endswith(
                f"failures: {count}; first at {first}"), weight.detail
        assert all(c.passed for cid, c in rows.items()
                   if not cid.endswith(".weight")), label
    assert failing > 0


# ----------------------------------------------------------------------
# averager cases
# ----------------------------------------------------------------------

def _averager_reference(B, tally, alpha, r1, r2, s1, s2):
    """The loop `_averager_cases` replaced: v x expanded in A."""
    families = B.ladder_families(r1, r2)
    where = f"({alpha:+d},{r1},{r2};{s1},{s2})"
    v = B.weight_averager(alpha, r1, r2, s1, s2)
    factor = 2 * B.p1 * B.p2
    for (family, arrow, i1, i2), el in B._elements_of_ideal(
            alpha, r1, r2, s1, s2).items():
        t1, t2 = families[(family, arrow)].slots
        case = 1 + (t1 == "k") + 2 * (t2 == "k")
        product = v * el.value
        if case == 1 and (i1, i2) == (s1 - 1, s2 - 1):
            tally.hit("averager.match", product == el.value * factor,
                      f"{(family, arrow)} {where}")
        else:
            slug = "case1-off-slot" if case == 1 else f"case{case}"
            tally.hit(f"averager.{slug}", product.is_zero(),
                      f"{(family, arrow, i1, i2)} {where}")


def _both_averager_readings(B, slot):
    reading, reference = _Record(), _Record()
    B._averager_cases(reading, *slot)
    _averager_reference(B, reference, *slot)
    return reading.hits, reference.hits


@pytest.mark.parametrize("pair", PAIRS)
def test_averager_readings_match_the_averager_products(pair, monkeypatch):
    # instance for instance, for the true averager and for the averager
    # moved to every other index (to the next index beyond (2,3))
    B = _swept(pair)
    korder = B.params.korder
    for slot in _slots(B):
        got, want = _both_averager_readings(B, slot)
        assert got == want and all(ok for _, ok, _ in got), slot
    true = BlockSystem.weight_averager
    shifts = range(1, korder) if pair == (2, 3) else (1,)
    for shift in shifts:
        def moved(self, *slot):
            (key, coeff), = true(self, *slot).terms.items()
            return AlgebraElement(self.algebra, {
                key[:4] + ((key[4] + shift) % korder,): coeff})

        monkeypatch.setattr(BlockSystem, "weight_averager", moved)
        for slot in _slots(B):
            got, want = _both_averager_readings(B, slot)
            assert got == want, (shift, slot)
        monkeypatch.setattr(BlockSystem, "weight_averager", true)


def test_a_moved_averager_fails_the_averager_rows(monkeypatch):
    # the elements are built first, so only the averager the cases read
    # moves.  Moved by 2 at (3,4), every block's averager rows fail; at
    # (2,3) no one shift fails them all, and the readings there follow the
    # products at every shift (above)
    B = BlockSystem(Algebra.for_pair(3, 4))
    for slot in _slots(B):
        B.ideal_basis(*slot)
    korder = B.params.korder
    true = BlockSystem.weight_averager

    def moved(self, *slot):
        (key, coeff), = true(self, *slot).terms.items()
        return AlgebraElement(self.algebra, {
            key[:4] + ((key[4] + 2) % korder,): coeff})

    monkeypatch.setattr(BlockSystem, "weight_averager", moved)
    for label in B.block_labels():
        rows = B.verify_ladder_relations(label)
        averager = [c for c in rows if ".averager." in c.check_id]
        assert averager and not any(c.passed for c in averager), label
        assert all(c.passed for c in rows if c not in averager), label


def test_an_averager_of_two_terms_is_refused_by_name(monkeypatch):
    B = BlockSystem(Algebra.for_pair(2, 3))
    for slot in _slots(B):
        B.ideal_basis(*slot)
    true = BlockSystem.weight_averager
    monkeypatch.setattr(BlockSystem, "weight_averager",
                        lambda self, *slot: true(self, *slot)
                        + self.algebra.generator("K"))
    rows = B.verify_ladder_relations(BlockLabel(1, 1))
    averager = [c for c in rows if ".averager." in c.check_id]
    assert len(averager) == 5
    for c in averager:
        total = int(c.detail.split(" ")[0])
        assert c.detail.startswith(f"{total} instances; failures: {total};")
        assert "is not one term 12 1_j" in c.detail


# ----------------------------------------------------------------------
# idempotent squares
# ----------------------------------------------------------------------

def _idempotent_slots(B):
    return [(entry, B.primitive_idempotent(*entry)) for label
            in B.block_labels()
            for entry in B.primitive_idempotent_catalog(label)]


def _column(B, slot):
    return list(B._elements_of_ideal(*slot)).index(B._slot_name(*slot[1:]))


@pytest.mark.parametrize("pair", PAIRS)
def test_idempotent_square_walks_match_the_squares(pair):
    # the loop the walk replaced: e e expanded in A against e
    B = _swept(pair)
    one = B.params.field.one
    for entry, e in _idempotent_slots(B):
        slot = entry[1:]
        c = _column(B, slot)
        walked, premise = B._ideal_product(e, *slot, {c: one})
        assert premise == ""
        assert walked == {c: one} and e * e == e, entry
    squares = B.verify_idempotents()[0]
    assert squares.passed and squares.detail.endswith("failures: none")


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_ideal_walks_match_the_products_on_every_basis_vector(pair):
    # the walker against A beyond the squares: e times every basis vector
    # of e's ideal, read back as the combination of the basis it returns
    B = _swept(pair)
    A, one = B.algebra, B.params.field.one
    for entry, e in _idempotent_slots(B):
        slot = entry[1:]
        basis = [el.value for el in B.ideal_basis(*slot)]
        for b, y in enumerate(basis):
            walked, premise = B._ideal_product(e, *slot, {b: one})
            assert premise == ""
            combined = A.zero()
            for d, v in walked.items():
                combined = combined + basis[d] * v
            assert combined == e * y, (entry, b)


def test_a_failed_instance_under_an_idempotent_is_named():
    # a planted failure of the K instance the square walk reads first
    B = BlockSystem(Algebra.for_pair(2, 3))
    (entry, _), = _idempotent_slots(B)[:1]
    slot = entry[1:]
    B.ladder_failures(*slot)
    planted = LadderFailure("K", _column(B, slot), "ladder[1,1].weight",
                            "planted")
    B._failures[slot] = (planted,)
    squares = B.verify_idempotents()[0]
    assert not squares.passed
    assert squares.detail.endswith(
        f"failures: {[entry]}; first: premise ladder[1,1].weight fails at "
        f"planted")


def test_an_idempotent_off_its_basis_vector_fails_its_square(monkeypatch):
    B = BlockSystem(Algebra.for_pair(2, 3))
    entries = [entry for entry, _ in _idempotent_slots(B)]
    true = B.primitive_idempotent
    monkeypatch.setattr(B, "primitive_idempotent", lambda *entry: (
        true(*entry) * 2 if entry == entries[3] else true(*entry)))
    squares = B.verify_idempotents()[0]
    assert not squares.passed
    assert f"first: {entries[3]} is not its ideal's basis vector" in (
        squares.detail)


# ----------------------------------------------------------------------
# center suite
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _realization(pair):
    R = Realization(_swept(pair))
    for label in R.system.block_labels():
        R.verify_block_shape(label)
    return R


@pytest.mark.parametrize("pair", PAIRS)
def test_center_readings_match_the_algebra(pair):
    # the loops the readings replaced: z g against g z and z z in A, per
    # central element and generator, against the matrix commutators and
    # squares on every summand
    R = _realization(pair)
    A = R.algebra
    gens = [A.generator(g) for g in GENERATOR_NAMES]
    compared = 0
    for label in R.system.block_labels():
        summands = R.system.summands_of(label)
        rows = [R._generator_rows(S, GENERATOR_NAMES) for S in summands]
        for name, z in R.central_elements(label).items():
            mats = [R.represent(z, S) for S in summands]
            for g_idx, g in enumerate(gens):
                read = not any(R._commutator(M, *pairs[g_idx])
                               for M, pairs in zip(mats, rows))
                assert read and z * g == g * z, (label, name, g_idx)
                compared += 1
            if name != "unit":
                read = all((M * M).is_zero() for M in mats)
                assert read and (z * z).is_zero(), (label, name)
        checks = R.verify_central_elements(label)
        assert all(c.passed for c in checks), label
    assert compared > 0


def test_commutator_readings_see_a_non_central_element():
    # a named element that is not central: the entry-wise commutator is
    # nonzero exactly for the generators the algebra says it fails with
    R = _realization((2, 3))
    A = R.algebra
    label = BlockLabel(1, 1)
    summands = R.system.summands_of(label)
    rows = [R._generator_rows(S, GENERATOR_NAMES) for S in summands]
    x = R.system.ideal_basis(*summands[0], 1, 1)[0].value
    mats = [R.represent(x, S) for S in summands]
    seen = []
    for g_idx, g in enumerate(GENERATOR_NAMES):
        y = A.generator(g)
        read = not any(R._commutator(M, *pairs[g_idx])
                       for M, pairs in zip(mats, rows))
        assert (x * y == y * x) == read, g
        seen.append(read)
    assert not all(seen)


def _reference_central_rows(R, label):
    """The loop the coordinate reading replaced: each central element built
    in A and represented on every summand, its commutators with all five
    generator matrices and its square read there, and the span taken over
    A's keys.  The center-preimages, drop-squares and center-dimension
    rows as (id, passed, detail)."""
    prefix = f"realization[{label.r1},{label.r2}]"
    named = R.central_elements(label)
    prescriptions = R.central_prescriptions(label)
    summands = R.system.summands_of(label)
    reps = {name: [R.represent(z, S) for S in summands]
            for name, z in named.items()}
    gens = [R._generator_rows(S, GENERATOR_NAMES) for S in summands]
    faithful = R._faithful.get(label)
    why = f"; premise {prefix}.faithful fails" if faithful is False else ""
    failed = [name for name, mats in reps.items()
              if why or not all(
                  [M == want for M, want in zip(mats, prescriptions[name])]
                  + [not R._commutator(M, G, rows_of)
                     for M, pairs in zip(mats, gens)
                     for G, rows_of in pairs])]
    drops = [name for name in named if name != "unit"]
    not_nilpotent = [name for name in drops if why or any(
        not (M * M).is_zero() for M in reps[name])]
    span = IncrementalSpan(R.params.field)
    for z in named.values():
        span.add({R.algebra.monomial_index(m): c for m, c in z.terms.items()})
    want = 3 ** len(R.system.block_ladders(label))
    dim = R.center_dimension(label)
    return [
        (f"{prefix}.central-preimages", not failed,
         f"{len(named)} central elements summed from named elements, "
         f"matched against their prescriptions and checked against five "
         f"generators; failures: {failed or 'none'}{why}"),
        (f"{prefix}.drop-squares", not not_nilpotent,
         f"{len(drops)} drop elements square to zero in the algebra; "
         f"failures: {not_nilpotent or 'none'}{why}"),
        (f"{prefix}.center-dimension",
         dim == want and span.rank == dim and not why,
         f"commutator nullspace dimension {dim} (expected {want}); the "
         f"central family spans {span.rank}{why}")]


def _center_rows(R, label):
    return [(c.check_id, c.passed, c.detail)
            for c in R.verify_central_elements(label)
            if not c.check_id.endswith("unit-preimage")]


@pytest.mark.parametrize("pair", PAIRS)
def test_coordinate_readings_give_the_rows_of_the_represented_loop(pair):
    # with the faithful premise from the shapes suite and with it failed
    R = _realization(pair)
    for label in R.system.block_labels():
        assert _center_rows(R, label) == _reference_central_rows(R, label)
    label = R.system.block_labels()[0]
    R._faithful[label] = False
    try:
        got = _center_rows(R, label)
        assert got == _reference_central_rows(R, label)
        assert not any(ok for _, ok, _ in got)
    finally:
        R._faithful[label] = True


def _refuse_central_elements(self, label):
    raise AssertionError("the center suite built a central element")


def _planted(monkeypatch, label, plant):
    """Replace the coordinates and prescriptions of some of the block's
    central elements: ``plant(R, coords, prescriptions)`` edits both in
    place.  Nothing may build a central element."""
    true_coordinates = Realization.central_coordinates
    true_prescriptions = Realization.central_prescriptions
    planted = {}

    def coordinates(self, lab, elements):
        coords, missing = true_coordinates(self, lab, elements)
        if lab == label:
            prescriptions = true_prescriptions(self, lab)
            plant(self, coords, prescriptions)
            planted.update(prescriptions)
        return coords, missing

    monkeypatch.setattr(Realization, "central_coordinates", coordinates)
    monkeypatch.setattr(Realization, "central_prescriptions", lambda self, lab: (
        dict(planted) if lab == label and planted
        else true_prescriptions(self, lab)))
    monkeypatch.setattr(Realization, "central_elements",
                        _refuse_central_elements)


def _failing_rows(R, label):
    checks = {c.check_id.split(".", 1)[1]: c
              for c in R.verify_central_elements(label)}
    return checks, {row for row, c in checks.items() if not c.passed}


def test_a_non_central_element_fails_central_preimages(monkeypatch):
    # a drop read as one degree-zero element, T/up(0, 0) of slot (1, 1),
    # prescribed as its own matrices: it matches its prescription, and the
    # commutator rows fail it, as does its square
    label = BlockLabel(1, 1)
    R = Realization(_swept((2, 3)))
    summands = R.system.summands_of(label)
    x = R.system.ideal_basis(*summands[0], 1, 1)[0]
    (k,) = [k for k, el in R.degree_zero_elements(label)[0] if el is x]
    drop = list(R.central_drops(label))[1][0]

    def plant(self, coords, prescriptions):
        coords[drop] = {k: self.params.field.one}
        prescriptions[drop] = [self.represent(x.value, S) for S in summands]

    _planted(monkeypatch, label, plant)
    A = R.algebra
    assert any(x.value * A.generator(g) != A.generator(g) * x.value
               for g in GENERATOR_NAMES)
    checks, failing = _failing_rows(R, label)
    assert failing == {"central-preimages", "drop-squares"}
    assert f"failures: ['{drop}']" in checks["central-preimages"].detail


def test_a_non_nilpotent_drop_matrix_fails_only_drop_squares(monkeypatch):
    # a drop read as the unit plus itself, prescribed as the sum of both
    # prescriptions: it matches and commutes, the central family keeps its
    # rank, but its square is not zero
    label = BlockLabel(1, 1)
    session = Session(RunConfig(p1=2, p2=3, suites=("center",)))
    R = session.realization
    drop = list(R.central_drops(label))[1][0]

    def plant(self, coords, prescriptions):
        coords[drop] = {**coords["unit"], **coords[drop]}
        prescriptions[drop] = [a + b for a, b in zip(prescriptions["unit"],
                                                      prescriptions[drop])]

    _planted(monkeypatch, label, plant)
    checks, failing = _failing_rows(R, label)
    assert failing == {"drop-squares"}
    assert drop in checks["drop-squares"].detail


def test_a_failed_faithful_row_fails_the_derived_center_rows(monkeypatch):
    R = Realization(_swept((2, 3)))
    label = BlockLabel(1, 3)
    R._faithful[label] = False
    _planted(monkeypatch, label, lambda self, coords, prescriptions: None)
    checks, failing = _failing_rows(R, label)
    assert failing == {"central-preimages", "drop-squares", "center-dimension"}
    for row in failing:
        assert checks[row].detail.endswith(
            "; premise realization[1,3].faithful fails")


def test_k_read_off_its_diagonal_fails_only_central_preimages():
    # K's exponent on one column of the first summand moved after the
    # system is represented: the central elements with an entry off the
    # diagonal in that row or column no longer commute with K, which only
    # central-preimages reads
    label = BlockLabel(1, 1)
    R = Realization(_swept((2, 3)))
    R.commutator_equations(label)
    S = R.system.summands_of(label)[0]
    moved = list(R.k_exponents(S))
    moved[0] += 1
    true_exponents = R.k_exponents
    R.k_exponents = lambda summand: (moved if summand == S
                                     else true_exponents(summand))
    checks, failing = _failing_rows(R, label)
    assert failing == {"central-preimages"}
    touched = [name for name, mats in R.central_prescriptions(label).items()
               if any(r != c and 0 in (r, c)
                      for c, rows in mats[0].items() for r in rows)]
    assert touched and "unit" not in touched
    assert checks["central-preimages"].detail.endswith(f"failures: {touched}")


@pytest.mark.parametrize("where", ["another block", "off degree zero"])
def test_a_slot_off_the_degree_zero_elements_is_named(monkeypatch, where):
    # a drop with one slot whose element is not among the block's
    # degree-zero elements: a slot of another block's class summed as
    # well, or one of its own slots whose element is moved to one of
    # nonzero degree in the same ideal.  The rows that read the coordinates fail and name the slot;
    # nothing raises
    B = _swept((2, 3))
    R = Realization(B)
    label = BlockLabel(1, 1)
    name, flags, _ = list(R.central_drops(label))[1]
    if where == "another block":
        extra = B.central_slots(BlockLabel(1, 3), {})[0]
        true_slots = B.central_slots
        monkeypatch.setattr(B, "central_slots", lambda lab, fl: (
            true_slots(lab, fl) + [extra] if (lab, fl) == (label, flags)
            else true_slots(lab, fl)))
    else:
        extra = B.central_slots(label, flags)[0]
        degree_zero = {id(el) for _, el in R.degree_zero_elements(label)[0]}
        moved = next((el.family, el.arrow, el.idx1, el.idx2)
                     for el in B.ideal_basis(*extra)
                     if id(el) not in degree_zero)
        true_name = B._slot_name
        monkeypatch.setattr(B, "_slot_name", lambda *slot: (
            moved if slot == (*extra[1:], flags) else true_name(*slot)))
    checks, failing = _failing_rows(R, label)
    assert failing == {"central-preimages", "drop-squares", "center-dimension"}
    premise = (f"; premise {name} sums the block's degree-zero elements "
               f"fails at slot {extra}")
    for row in failing:
        assert checks[row].detail.endswith(premise), row


# ----------------------------------------------------------------------
# work counts and layering
# ----------------------------------------------------------------------

def test_whole_stack_work_counts_at_2_3():
    # element products per suite of `verify --suite all` at (2,3); before
    # these readings: ideals 2,776, idempotents 36, center 214
    counts = _whole((2, 3)).suite_counts
    assert {suite: counts[suite]["element_products"]
            for suite in ("ideals", "idempotents", "center")} == {
        "ideals": 1912, "idempotents": 0, "center": 0}


def test_center_suite_work_counts_at_2_3(monkeypatch):
    # `--suite center` alone: each degree-zero element is represented once
    # per summand of its block (180) and commuted with four generator
    # matrices (720), and no central element is represented.  The span adds
    # are the 180 basis vectors of the summands' ideals, the 129 distinct
    # commutator rows and the 20 central coordinate vectors.  Before the
    # coordinate reading: 236 represent calls, 1,000 commutators and 724
    # span adds (524 commutator rows, 20 central elements over A's keys)
    counts = dict.fromkeys(("represent", "commutator", "span_add"), 0)

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Realization, "represent",
                        counted("represent", Realization.represent))
    monkeypatch.setattr(Realization, "_commutator", staticmethod(
        counted("commutator", Realization._commutator)))
    monkeypatch.setattr(IncrementalSpan, "add",
                        counted("span_add", IncrementalSpan.add))
    session = Session(RunConfig(p1=2, p2=3, suites=("center",)))
    assert all(c.passed for c in session.suite_center())
    assert counts == {"represent": 180, "commutator": 720, "span_add": 329}


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
@pytest.mark.parametrize("suite", ["center", "idempotents"])
def test_suite_alone_gives_the_whole_stack_rows(pair, suite):
    whole = _whole(pair)
    _, alone = run(RunConfig(p1=pair[0], p2=pair[1], suites=(suite,)))
    mine = [(c.check_id, c.status) for c in alone.checks]
    ids = {cid for cid, _ in mine}
    assert mine == [(c.check_id, c.status) for c in whole.checks
                    if c.check_id in ids]
    assert all(status == "pass" for _, status in mine)
    if suite == "center":
        derived = [c for c in alone.checks if c.check_id.endswith(
            ("central-preimages", "drop-squares", "center-dimension"))]
        assert derived and all(
            "premise faithful not checked in this run" in c.scope
            for c in derived)
        whole_scopes = [c.scope for c in whole.checks
                        if c.check_id.endswith("drop-squares")]
        assert all(".faithful from the shapes suite" in scope
                   for scope in whole_scopes)
