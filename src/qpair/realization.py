"""Block realizations: every two-sided summand as explicit matrices.

Left multiplication by a block element preserves each left ideal, so a
block acts on the direct sum of its representative projective ideals
(slot (1, 1) of each isomorphism class).  This module computes those
left-multiplication matrices exactly in a fixed flat basis: boundary
ideals list their four arrow families in the order up, left, right,
down; interior ideals nest that order inside the letter order T, L, R,
B; within a family the first index varies fastest.

All matrices are the package's one sparse `linalg.Matrix` type.
Generator matrices are obtained by expanding honest algebra products
over the ideal basis.  The matrix of a PBW monomial is the corresponding
product of generator matrices (`pbw_matrices`, which the functional
layer reuses for the characters of the simple modules), so representing
an arbitrary element is a linear combination of precomputed matrices,
accumulated in place.

A single nine-cell occupancy template (applied once per ladder
direction) predicts where each named element may act and with which
unit entries; comparing predicted against realized matrices verifies
the displayed action tables, the block shapes with their forced zeros
and repeated diagonal sub-blocks, and the misprint adjudication at the
re-entry cell.  The same matrices drive exact rank (faithfulness),
central preimage solving, and block-center dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from .algebra import AlgebraElement
from .cyclo import CycloNumber, Params
from .ideals import BlockLabel, BlockSystem, NamedElement
from .linalg import IncrementalSpan, Matrix, nullspace
from .report import Check

ARROWS = ("up", "left", "right", "down")
LETTERS = ("T", "L", "R", "B")
_LETTER_FOR = dict(zip(ARROWS, LETTERS))
GENERATOR_NAMES = ("e1", "e2", "f1", "f2", "K")

# Row/column group positions of the one-direction shape template, in the
# family order up, left, right, down.  The same nine cells describe a
# boundary ideal directly and an interior ideal twice (letters outside,
# arrows inside).
_SHAPE_CELLS = (
    (0, 0), (3, 3),
    (1, 0), (2, 0), (3, 0),
    (1, 1), (2, 2),
    (3, 1), (3, 2),
)


def _ladder_cells(sign: int, low: int, size: int):
    """Tag each template cell with (arrow, sign, ladder label).

    ``low`` is the ladder size of the same-sign family and ``size - low``
    the size of the reflected one; the diagonal pairs (0,0)/(3,3) and
    (1,1)/(2,2) carry identical tags, which is where the repeated
    sub-block constraints come from.
    """
    high = size - low
    tags = (
        ("up", sign, low), ("up", sign, low),
        ("left", sign, low), ("right", sign, low), ("down", sign, low),
        ("up", -sign, high), ("up", -sign, high),
        ("right", -sign, high), ("left", -sign, high),
    )
    return tuple((rc[0], rc[1]) + tag for rc, tag in zip(_SHAPE_CELLS, tags))


# ----------------------------------------------------------------------
# Monomial matrices
# ----------------------------------------------------------------------

def pbw_matrices(params: Params,
                 gens: Mapping[str, Matrix]) -> Iterator[Matrix]:
    """Matrices of all PBW basis monomials, in basis-index order.

    ``gens`` maps e1, e2, f1, f2 and K to their matrices on any module.
    A PBW monomial is literally the product of its generator powers, so
    its matrix is the matching product of generator matrices; the loop
    nest mirrors the basis enumeration and shares partial products.
    Every power list starts with one shared identity matrix, and a
    product with it is skipped, so a yielded matrix may be the identity,
    a generator matrix or another yielded matrix: callers only read them.
    """
    ident = Matrix.identity(params.field, gens["K"].nrows)

    def times(a: Matrix, b: Matrix) -> Matrix:
        if a is ident:
            return b
        if b is ident:
            return a
        return a * b

    def powers(mat: Matrix, count: int) -> List[Matrix]:
        out = [ident]
        for _ in range(count - 1):
            out.append(times(out[-1], mat))
        return out

    p1, p2 = params.p1, params.p2
    e1 = powers(gens["e1"], p1)
    e2 = powers(gens["e2"], p2)
    f1 = powers(gens["f1"], p1)
    f2 = powers(gens["f2"], p2)
    kp = powers(gens["K"], params.korder)
    for m1 in range(p1):
        for m2 in range(p2):
            left = times(e1[m1], e2[m2])
            for n1 in range(p1):
                mid = times(left, f1[n1])
                for n2 in range(p2):
                    right = times(mid, f2[n2])
                    for ell in range(params.korder):
                        yield times(right, kp[ell])


# ----------------------------------------------------------------------
# Labels and layouts
# ----------------------------------------------------------------------

class ProjectiveSummand(NamedTuple):
    """Isomorphism-class label (sign, ladder sizes) of one summand."""

    alpha: int
    r1: int
    r2: int


@dataclass
class GroupLayout:
    """Flat indexing of one projective ideal's family-ordered basis."""

    families: Tuple[Tuple[str, str], ...]
    sizes: Dict[Tuple[str, str], Tuple[int, int]]
    offsets: Dict[Tuple[str, str], int]
    dim: int

    def flat(self, family: str, arrow: str, i1: int, i2: int) -> int:
        h1, h2 = self.sizes[(family, arrow)]
        if not (0 <= i1 < h1 and 0 <= i2 < h2):
            raise IndexError(
                f"index {(i1, i2)} outside family {(family, arrow)} of "
                f"size {(h1, h2)}")
        return self.offsets[(family, arrow)] + i2 * h1 + i1


@dataclass
class BlockRealization:
    """One block's ordered element basis with per-summand matrices."""

    label: BlockLabel
    summands: Tuple[ProjectiveSummand, ...]
    elements: List[NamedElement]
    matrices: List[Tuple[Matrix, ...]]


class Realization:
    """Computes and verifies the matrix form of every block."""

    def __init__(self, system: BlockSystem):
        self.system = system
        self.algebra = system.algebra
        self.params = system.params
        self.p1 = system.p1
        self.p2 = system.p2
        self._layouts: Dict[ProjectiveSummand, GroupLayout] = {}
        self._bases: Dict[ProjectiveSummand, tuple] = {}
        self._gen_mats: Dict[ProjectiveSummand, Dict[str, Matrix]] = {}
        self._monomials: Dict[ProjectiveSummand, List[Matrix]] = {}
        self._blocks: Dict[BlockLabel, BlockRealization] = {}
        self._joint: Dict[BlockLabel, tuple] = {}

    # ------------------------------------------------------------------
    # Summands and bases
    # ------------------------------------------------------------------

    def summand_kind(self, summand: ProjectiveSummand) -> str:
        if summand.r1 == self.p1 and summand.r2 == self.p2:
            return "corner"
        if summand.r2 == self.p2:
            return "edge-1"
        if summand.r1 == self.p1:
            return "edge-2"
        return "interior"

    def summands_of(self, label: BlockLabel) -> Tuple[ProjectiveSummand, ...]:
        """The block's distinct projective classes, in reading order."""
        kind = self.system.block_kind(label)
        p1, p2 = self.p1, self.p2
        if kind == "corner-plus":
            return (ProjectiveSummand(1, p1, p2),)
        if kind == "corner-minus":
            return (ProjectiveSummand(-1, p1, p2),)
        if kind == "edge-1":
            return (ProjectiveSummand(1, label.r1, p2),
                    ProjectiveSummand(-1, p1 - label.r1, p2))
        if kind == "edge-2":
            return (ProjectiveSummand(1, p1, label.r2),
                    ProjectiveSummand(-1, p1, p2 - label.r2))
        r1, r2 = label
        return (ProjectiveSummand(1, r1, r2),
                ProjectiveSummand(-1, p1 - r1, r2),
                ProjectiveSummand(-1, r1, p2 - r2),
                ProjectiveSummand(1, p1 - r1, p2 - r2))

    def layout(self, summand: ProjectiveSummand) -> GroupLayout:
        cached = self._layouts.get(summand)
        if cached is not None:
            return cached
        kind = self.summand_kind(summand)
        p1, p2 = self.p1, self.p2
        if kind == "corner":
            families: Tuple[Tuple[str, str], ...] = (("B", "down"),)
        elif kind in ("edge-1", "edge-2"):
            families = tuple(("B", a) for a in ARROWS)
        else:
            families = tuple((X, a) for X in LETTERS for a in ARROWS)
        sizes = {}
        offsets = {}
        pos = 0
        for family, arrow in families:
            if kind == "corner":
                h1, h2 = summand.r1, summand.r2
            elif kind == "edge-1":
                h1 = summand.r1 if arrow in ("up", "down") else p1 - summand.r1
                h2 = p2
            elif kind == "edge-2":
                h1 = p1
                h2 = summand.r2 if arrow in ("up", "down") else p2 - summand.r2
            else:
                h1 = summand.r1 if arrow in ("up", "down") else p1 - summand.r1
                h2 = summand.r2 if family in ("T", "B") else p2 - summand.r2
            sizes[(family, arrow)] = (h1, h2)
            offsets[(family, arrow)] = pos
            pos += h1 * h2
        out = GroupLayout(families, sizes, offsets, pos)
        self._layouts[summand] = out
        return out

    def ideal_elements(self, summand: ProjectiveSummand,
                       s1: int, s2: int) -> List[NamedElement]:
        """The left ideal at slot (s1, s2), enumerated in layout order."""
        lay = self.layout(summand)
        out = []
        for family, arrow in lay.families:
            h1, h2 = lay.sizes[(family, arrow)]
            for i2 in range(h2):
                for i1 in range(h1):
                    out.append(self.system.build_named_element(
                        family, arrow, summand.alpha, summand.r1,
                        summand.r2, s1, s2, i1, i2))
        return out

    def _basis(self, summand: ProjectiveSummand):
        cached = self._bases.get(summand)
        if cached is not None:
            return cached
        A = self.algebra
        els = self.ideal_elements(summand, 1, 1)
        span = IncrementalSpan(self.params.field, track=True)
        for el in els:
            vec = {A.monomial_index(m): c for m, c in el.value.terms.items()}
            if not span.add(vec):
                raise ArithmeticError(
                    f"dependent projective basis vector "
                    f"{(el.family, el.arrow, el.idx1, el.idx2)} on {summand}")
        out = (els, span)
        self._bases[summand] = out
        return out

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------

    def generator_matrix(self, summand: ProjectiveSummand,
                         gen: str) -> Matrix:
        """Left multiplication by a generator, expanded honestly.

        Each column is the exact coordinate solve of generator * basis
        vector against the ideal span; a product escaping the span would
        contradict two-sidedness and raises immediately.
        """
        mats = self._gen_mats.setdefault(summand, {})
        cached = mats.get(gen)
        if cached is not None:
            return cached
        A = self.algebra
        els, span = self._basis(summand)
        g = A.generator(gen)
        cols = Matrix(self.params.field, len(els))
        for j, el in enumerate(els):
            image = g * el.value
            if image.is_zero():
                continue
            coords = span.coordinates(
                {A.monomial_index(m): c for m, c in image.terms.items()})
            if coords is None:
                raise ArithmeticError(
                    f"left multiplication by {gen} escapes the ideal "
                    f"span on {summand}")
            cols[j] = dict(coords)
        mats[gen] = cols
        return cols

    def monomial_matrices(self, summand: ProjectiveSummand) -> List[Matrix]:
        """Matrices of all PBW basis monomials, in basis-index order."""
        cached = self._monomials.get(summand)
        if cached is not None:
            return cached
        gens = {g: self.generator_matrix(summand, g) for g in GENERATOR_NAMES}
        out = list(pbw_matrices(self.params, gens))
        self._monomials[summand] = out
        return out

    def represent(self, x: AlgebraElement,
                  summand: ProjectiveSummand) -> Matrix:
        """Left-multiplication matrix of x on the summand's ideal."""
        mono = self.monomial_matrices(summand)
        A = self.algebra
        acc = Matrix(self.params.field, self.layout(summand).dim)
        for m, c in x.terms.items():
            acc.add_scaled(mono[A.monomial_index(m)], c)
        return acc

    def block_realization(self, label: BlockLabel) -> BlockRealization:
        cached = self._blocks.get(label)
        if cached is not None:
            return cached
        summands = self.summands_of(label)
        elements: List[NamedElement] = []
        for S in summands:
            for s2 in range(1, S.r2 + 1):
                for s1 in range(1, S.r1 + 1):
                    elements.extend(self.ideal_elements(S, s1, s2))
        matrices = [tuple(self.represent(el.value, S) for S in summands)
                    for el in elements]
        out = BlockRealization(label, summands, elements, matrices)
        self._blocks[label] = out
        return out

    # ------------------------------------------------------------------
    # Predicted matrices
    # ------------------------------------------------------------------

    def expected_matrix(self, el: NamedElement,
                        summand: ProjectiveSummand) -> Matrix:
        """The 0/1 matrix the action displays predict for one element.

        An element contributes a unit entry at (its own index pair, the
        slot pair of the column family) for every template cell whose
        arrow, sign, and ladder labels all match; matching the full tag
        keeps the prediction correct when reflected labels coincide.
        """
        lay = self.layout(summand)
        kind = self.summand_kind(summand)
        one = self.params.field.one
        out = Matrix(self.params.field, lay.dim)

        def put(rfam, rarrow, cfam, carrow):
            out.put(lay.flat(rfam, rarrow, el.idx1, el.idx2),
                    lay.flat(cfam, carrow, el.s1 - 1, el.s2 - 1), one)

        if kind == "corner":
            if el.alpha == summand.alpha:
                put("B", "down", "B", "down")
        elif kind == "edge-1":
            for ri, ci, arrow, sg, lab in _ladder_cells(
                    summand.alpha, summand.r1, self.p1):
                if el.arrow == arrow and el.alpha == sg and el.r1 == lab:
                    put("B", ARROWS[ri], "B", ARROWS[ci])
        elif kind == "edge-2":
            for ri, ci, arrow, sg, lab in _ladder_cells(
                    summand.alpha, summand.r2, self.p2):
                if el.arrow == arrow and el.alpha == sg and el.r2 == lab:
                    put("B", ARROWS[ri], "B", ARROWS[ci])
        else:
            for RI, CI, larrow, sg2, lab2 in _ladder_cells(
                    summand.alpha, summand.r2, self.p2):
                if el.family != _LETTER_FOR[larrow] or el.r2 != lab2:
                    continue
                for ri, ci, arrow, sg1, lab1 in _ladder_cells(
                        sg2, summand.r1, self.p1):
                    if el.arrow == arrow and el.alpha == sg1 and el.r1 == lab1:
                        put(LETTERS[RI], ARROWS[ri], LETTERS[CI], ARROWS[ci])
        return out

    def occupied_cells(self, summand: ProjectiveSummand) -> frozenset:
        """Group pairs allowed to carry entries on this summand."""
        kind = self.summand_kind(summand)
        if kind == "corner":
            return frozenset({(("B", "down"), ("B", "down"))})
        if kind in ("edge-1", "edge-2"):
            return frozenset(
                (("B", ARROWS[ri]), ("B", ARROWS[ci]))
                for ri, ci in _SHAPE_CELLS)
        return frozenset(
            ((LETTERS[RI], ARROWS[ri]), (LETTERS[CI], ARROWS[ci]))
            for RI, CI in _SHAPE_CELLS for ri, ci in _SHAPE_CELLS)

    def _group_of(self, lay: GroupLayout) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = [("", "")] * lay.dim
        for gkey in lay.families:
            off = lay.offsets[gkey]
            h1, h2 = lay.sizes[gkey]
            for t in range(h1 * h2):
                out[off + t] = gkey
        return out

    @staticmethod
    def _cellwise(mat: Matrix, lay: GroupLayout, group_of) -> Dict:
        """Split a matrix into {(row group, col group): {local pos: val}}."""
        out: Dict = {}
        for col, rows in mat.items():
            gcol = group_of[col]
            coff = lay.offsets[gcol]
            for row, val in rows.items():
                grow = group_of[row]
                roff = lay.offsets[grow]
                out.setdefault((grow, gcol), {})[(row - roff, col - coff)] = val
        return out

    # ------------------------------------------------------------------
    # Verification: action tables
    # ------------------------------------------------------------------

    def verify_action_table(self, label: BlockLabel) -> List[Check]:
        """Predicted unit entries == realized matrices, element by element.

        Equality of the full matrices covers both directions at once:
        every displayed action is reproduced and every action the
        displays omit is zero.
        """
        real = self.block_realization(label)
        mismatches = []
        entries = 0
        for el, mats in zip(real.elements, real.matrices):
            for S, got in zip(real.summands, mats):
                want = self.expected_matrix(el, S)
                entries += sum(len(rows) for rows in want.values())
                if want != got:
                    mismatches.append(
                        ((el.family, el.arrow, el.alpha, el.r1, el.r2,
                          el.s1, el.s2, el.idx1, el.idx2), tuple(S)))
        r1, r2 = label
        detail = (f"{len(real.elements)} elements on {len(real.summands)} "
                  f"summands; {entries} displayed unit entries reproduced, "
                  f"omitted positions zero")
        if mismatches:
            detail += f"; first failure {mismatches[0]}"
        checks = [Check(f"realization[{r1},{r2}].action-table",
                        not mismatches, detail, anchor="block-action-tables")]
        if self.system.block_kind(label).startswith("corner"):
            checks.append(self._verify_matrix_units(real))
        return checks

    def _verify_matrix_units(self, real: BlockRealization) -> Check:
        """Corner products obey the matrix-unit law in the algebra itself."""
        bad = 0
        zero = self.algebra.zero()
        for x in real.elements:
            for y in real.elements:
                product = x.value * y.value
                if (x.s1 - 1, x.s2 - 1) == (y.idx1, y.idx2):
                    want = self.system.build_named_element(
                        "B", "down", x.alpha, x.r1, x.r2,
                        y.s1, y.s2, x.idx1, x.idx2).value
                else:
                    want = zero
                if product != want:
                    bad += 1
        n = len(real.elements)
        return Check(
            f"realization[{real.label.r1},{real.label.r2}].matrix-unit-products",
            bad == 0,
            f"{n * n} ordered products expanded in the algebra; failures: {bad}",
            anchor="corner-matrix-units")

    # ------------------------------------------------------------------
    # Verification: shapes
    # ------------------------------------------------------------------

    def _repeat_partners(self, kind: str):
        if kind == "corner":
            return ()
        if kind in ("edge-1", "edge-2"):
            return (
                ((("B", "up"), ("B", "up")), (("B", "down"), ("B", "down"))),
                ((("B", "left"), ("B", "left")),
                 (("B", "right"), ("B", "right"))),
            )
        pairs = []
        for a in ARROWS:            # outer-level repeats, all inner positions
            for b in ARROWS:
                pairs.append(((("T", a), ("T", b)), (("B", a), ("B", b))))
                pairs.append(((("L", a), ("L", b)), (("R", a), ("R", b))))
        for X in LETTERS:           # inner-level repeats, all outer positions
            for Y in LETTERS:
                pairs.append((((X, "up"), (Y, "up")),
                              ((X, "down"), (Y, "down"))))
                pairs.append((((X, "left"), (Y, "left")),
                              ((X, "right"), (Y, "right"))))
        return tuple(pairs)

    def verify_block_shape(self, label: BlockLabel) -> List[Check]:
        """Forced zeros, repeated diagonals, faithfulness, dimension."""
        real = self.block_realization(label)
        kind = self.system.block_kind(label)
        r1, r2 = label
        prefix = f"realization[{r1},{r2}]"
        checks: List[Check] = []

        lays = [self.layout(S) for S in real.summands]
        groups = [self._group_of(lay) for lay in lays]
        occupied = [self.occupied_cells(S) for S in real.summands]
        partners = [self._repeat_partners(self.summand_kind(S))
                    for S in real.summands]

        zero_bad = 0
        repeat_bad = 0
        for mats in real.matrices:
            for mat, lay, group_of, occ, parts in zip(
                    mats, lays, groups, occupied, partners):
                cells = self._cellwise(mat, lay, group_of)
                if not set(cells).issubset(occ):
                    zero_bad += 1
                for pair_a, pair_b in parts:
                    if cells.get(pair_a, {}) != cells.get(pair_b, {}):
                        repeat_bad += 1
        checks.append(Check(
            f"{prefix}.forced-zeros", zero_bad == 0,
            f"support of every element matrix confined to the shape "
            f"template; violations: {zero_bad}", anchor="block-shape-zeros"))
        checks.append(Check(
            f"{prefix}.repeated-diagonals", repeat_bad == 0,
            f"diagonal sub-block pairs coincide entry for entry; "
            f"violations: {repeat_bad}", anchor="block-shape-repeats"))

        span, _, _ = self._joint_span(label)
        n = len(real.elements)
        checks.append(Check(
            f"{prefix}.faithful", span.rank == n,
            f"joint matrix tuples of the {n} block basis elements have "
            f"rank {span.rank}", anchor="block-realization-rank"))

        p1p2 = self.p1 * self.p2
        if kind.startswith("corner"):
            want = p1p2 * p1p2
        elif kind in ("edge-1", "edge-2"):
            want = 2 * p1p2 * p1p2
        else:
            want = 4 * p1p2 * p1p2
        checks.append(Check(
            f"{prefix}.dimension", n == want and span.rank == want,
            f"realized subalgebra dimension {span.rank}, block dimension "
            f"{want}", anchor="block-dimension"))

        field = self.params.field
        unit = self.system.block_idempotent(label)
        ident_ok = all(
            self.represent(unit, S) == Matrix.identity(field, lay.dim)
            for S, lay in zip(real.summands, lays))
        foreign_label = next(lab for lab in self.system.block_labels()
                             if lab != label)
        foreign = self.summands_of(foreign_label)[0]
        zero_ok = self.represent(unit, foreign).is_zero()
        checks.append(Check(
            f"{prefix}.unit-matrix", ident_ok and zero_ok,
            "block idempotent acts as the identity on its own summands "
            "and as zero elsewhere", anchor="block-unit-matrix"))

        if kind in ("edge-1", "edge-2"):
            checks.append(self._verify_reentry_cell(label, real))
        return checks

    def _verify_reentry_cell(self, label: BlockLabel,
                             real: BlockRealization) -> Check:
        """Both readings of the mixed-label re-entry entry, adjudicated.

        One boundary shape display labels the (down, right) cell of the
        minus-sign summand with the minus superscript but the plus-side
        subscripts.  By the diagonal symmetry the cell belongs to the
        plus-sign left family; the minus-sign left family lives in the
        (left, up) cell instead.  Both variants are tested on content.
        """
        lay = self.layout(real.summands[1])
        group_of = self._group_of(lay)
        cell = (("B", "down"), ("B", "right"))
        corrected_missing = 0
        printed_hits = 0
        minus_seen = 0
        plus_seen = 0
        for el, mats in zip(real.elements, real.matrices):
            if el.arrow != "left":
                continue
            cells = self._cellwise(mats[1], lay, group_of)
            if el.alpha == 1:
                plus_seen += 1
                if cell not in cells:
                    corrected_missing += 1
            else:
                minus_seen += 1
                if cell in cells:
                    printed_hits += 1
        ok = corrected_missing == 0 and printed_hits == 0 and plus_seen > 0
        detail = (
            f"plus-sign left family populates the re-entry cell "
            f"({plus_seen} elements, {corrected_missing} missing); the "
            f"printed minus-sign reading contributes nothing there "
            f"({printed_hits} hits over {minus_seen} candidates)")
        return Check(f"realization[{label.r1},{label.r2}].reentry-cell-family",
                     ok, detail, anchor="shape-misprint-adjudication",
                     corrected=True)

    # ------------------------------------------------------------------
    # Central preimages and the block center
    # ------------------------------------------------------------------

    def _joint_span(self, label: BlockLabel):
        cached = self._joint.get(label)
        if cached is not None:
            return cached
        real = self.block_realization(label)
        dims = [self.layout(S).dim for S in real.summands]
        offsets = []
        pos = 0
        for d in dims:
            offsets.append(pos)
            pos += d * d
        span = IncrementalSpan(self.params.field, track=True)
        for mats in real.matrices:
            span.add(self._flatten(mats, dims, offsets))
        out = (span, dims, offsets)
        self._joint[label] = out
        return out

    @staticmethod
    def _flatten(mats: Sequence[Matrix], dims, offsets):
        vec: Dict[int, CycloNumber] = {}
        for mat, d, off in zip(mats, dims, offsets):
            for col, rows in mat.items():
                base = off + col * d
                for row, val in rows.items():
                    vec[base + row] = val
        return vec

    def solve_central_preimage(self, label: BlockLabel,
                               prescription: Sequence[Matrix]
                               ) -> AlgebraElement:
        """The unique block element realizing the prescribed matrices."""
        real = self.block_realization(label)
        if len(prescription) != len(real.summands):
            raise ValueError(
                f"expected {len(real.summands)} matrices, "
                f"got {len(prescription)}")
        span, dims, offsets = self._joint_span(label)
        coords = span.coordinates(
            self._flatten(prescription, dims, offsets))
        if coords is None:
            raise ValueError(
                "prescription lies outside the realized block algebra")
        out = self.algebra.zero()
        for k, c in coords.items():
            out = out + real.elements[k].value * c
        return out

    def _shift_matrix(self, lay: GroupLayout, pairs) -> Matrix:
        """Index-preserving unit map from each source family to its target."""
        one = self.params.field.one
        out = Matrix(self.params.field, lay.dim)
        for (dfam, darrow), (sfam, sarrow) in pairs:
            h1, h2 = lay.sizes[(sfam, sarrow)]
            if lay.sizes[(dfam, darrow)] != (h1, h2):
                raise ValueError("shift between families of unequal shape")
            for i2 in range(h2):
                for i1 in range(h1):
                    col = lay.flat(sfam, sarrow, i1, i2)
                    out[col] = {lay.flat(dfam, darrow, i1, i2): one}
        return out

    def central_prescriptions(self, label: BlockLabel
                              ) -> Dict[str, List[Matrix]]:
        """Matrix prescriptions of the block's central elements.

        Beyond the unit, boundary blocks carry one nilpotent per summand
        (top arrow family to bottom arrow family) and interior blocks
        carry the four letter drops t->b, the four arrow drops up->down
        (each supported on a summand pair), and one corner drop per
        summand.
        """
        kind = self.system.block_kind(label)
        real = self.block_realization(label)
        lays = [self.layout(S) for S in real.summands]
        field = self.params.field
        out: Dict[str, List[Matrix]] = {
            "unit": [Matrix.identity(field, lay.dim) for lay in lays]}

        def place(name, positions, pairs):
            mats = [Matrix(field, lay.dim) for lay in lays]
            for pos in positions:
                mats[pos] = self._shift_matrix(lays[pos], pairs)
            out[name] = mats

        if kind in ("edge-1", "edge-2"):
            drop = ((("B", "down"), ("B", "up")),)
            place("arrow-drop-0", (0,), drop)
            place("arrow-drop-1", (1,), drop)
        elif kind == "interior":
            tops = tuple((("B", a), ("T", a)) for a in ARROWS)
            downs = tuple(((X, "down"), (X, "up")) for X in LETTERS)
            corner = ((("B", "down"), ("T", "up")),)
            place("top-drop-01", (0, 1), tops)
            place("top-drop-23", (2, 3), tops)
            place("arrow-drop-02", (0, 2), downs)
            place("arrow-drop-13", (1, 3), downs)
            for pos in range(4):
                place(f"corner-drop-{pos}", (pos,), corner)
        return out

    def central_elements(self, label: BlockLabel) -> Dict[str, AlgebraElement]:
        return {name: self.solve_central_preimage(label, mats)
                for name, mats in self.central_prescriptions(label).items()}

    def center_basis(self, label: BlockLabel):
        """Nullspace basis of the commutator system over the block span."""
        real = self.block_realization(label)
        equations: Dict[tuple, Dict[int, CycloNumber]] = {}
        for s_idx, S in enumerate(real.summands):
            gens = [self.generator_matrix(S, g) for g in GENERATOR_NAMES]
            for k, mats in enumerate(real.matrices):
                M = mats[s_idx]
                for g_idx, G in enumerate(gens):
                    D = M * G - G * M
                    for col, rows in D.items():
                        for row, val in rows.items():
                            equations.setdefault(
                                (s_idx, g_idx, row, col), {})[k] = val
        return nullspace(self.params.field, equations.values(),
                         len(real.elements))

    def center_dimension(self, label: BlockLabel) -> int:
        return len(self.center_basis(label))

    def verify_central_elements(self, label: BlockLabel) -> List[Check]:
        """Preimages exist, commute with everything, and square right."""
        kind = self.system.block_kind(label)
        r1, r2 = label
        prefix = f"realization[{r1},{r2}]"
        checks: List[Check] = []
        try:
            named = self.central_elements(label)
        except ValueError as exc:
            return [Check(f"{prefix}.central-preimages", False, str(exc),
                          anchor="central-element-preimages")]
        A = self.algebra
        gens = [A.generator(g) for g in GENERATOR_NAMES]
        not_central = [name for name, z in named.items()
                       if any(z * g != g * z for g in gens)]
        checks.append(Check(
            f"{prefix}.central-preimages", not not_central,
            f"{len(named)} prescriptions solved inside the block and "
            f"checked against five generators; failures: "
            f"{not_central or 'none'}", anchor="central-element-preimages"))

        unit_ok = named["unit"] == self.system.block_idempotent(label)
        checks.append(Check(
            f"{prefix}.unit-preimage", unit_ok,
            "identity prescription solves to the block idempotent",
            anchor="central-element-preimages"))

        drops = {n: z for n, z in named.items() if n != "unit"}
        not_nilpotent = [n for n, z in drops.items()
                         if not (z * z).is_zero()]
        checks.append(Check(
            f"{prefix}.drop-squares", not not_nilpotent,
            f"{len(drops)} drop elements square to zero in the algebra; "
            f"failures: {not_nilpotent or 'none'}",
            anchor="central-element-preimages"))

        span = IncrementalSpan(self.params.field)
        for z in named.values():
            span.add({A.monomial_index(m): c for m, c in z.terms.items()})
        want = {"corner-plus": 1, "corner-minus": 1,
                "edge-1": 3, "edge-2": 3, "interior": 9}[kind]
        dim = self.center_dimension(label)
        checks.append(Check(
            f"{prefix}.center-dimension",
            dim == want and span.rank == dim,
            f"commutator nullspace dimension {dim} (expected {want}); "
            f"the solved central family spans {span.rank}",
            anchor="block-center-dimension"))
        return checks

    # ------------------------------------------------------------------
    # Traces for the functional layer
    # ------------------------------------------------------------------

    def group_trace(self, summand: ProjectiveSummand, mat: Matrix,
                    rowgroup: Tuple[str, str],
                    colgroup: Tuple[str, str]) -> CycloNumber:
        """Sum of entries at (row family position t, col family position t)."""
        lay = self.layout(summand)
        if lay.sizes[rowgroup] != lay.sizes[colgroup]:
            raise ValueError("trace between families of unequal shape")
        roff = lay.offsets[rowgroup]
        coff = lay.offsets[colgroup]
        h1, h2 = lay.sizes[rowgroup]
        total = self.params.field.zero
        for t in range(h1 * h2):
            rows = mat.get(coff + t)
            if rows:
                val = rows.get(roff + t)
                if val is not None:
                    total = total + val
        return total

    def full_trace(self, summand: ProjectiveSummand,
                   mat: Matrix) -> CycloNumber:
        total = self.params.field.zero
        lay = self.layout(summand)
        for gkey in lay.families:
            total = total + self.group_trace(summand, mat, gkey, gkey)
        return total
