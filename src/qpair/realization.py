"""Block realizations: every two-sided summand as explicit matrices.

Left multiplication by a block element preserves each left ideal, so a
block acts on the direct sum of its representative projective ideals
(slot (1, 1) of each isomorphism class).  This module computes those
left-multiplication matrices exactly in the flat basis `ideal_basis`
enumerates; the classes, families, family order and index ranges are
decided in `ideals`, and a `GroupLayout` only adds each family's offset.

All matrices are the package's one sparse `linalg.Matrix` type.
Generator matrices are read off the summand's slot-(1, 1) action table
(`BlockSystem.generator_matrix`): the ladder sweep expands each generator
times each ideal basis vector once, compares it with its displayed image
and keeps the image's coordinates, so no product is made here and a
column that failed its check is never used.  The matrix of a K-free word
e1^m1 e2^m2 f1^n1 f2^n2
is the corresponding product of generator matrices (`pbw_matrices`,
which the functional layer reuses for the characters of the simple
modules).  Every ideal basis vector is a word times a weight averager,
so K acts diagonally, as zeta^(s_c) on basis vector c, and the matrix of
w K^ell is the word's matrix with column c scaled by zeta^(s_c ell).
Every trace functional of the functional layer is read off the word
matrices and K's diagonal by one kernel, `twisted_trace`.
Elements are stored in the projector basis w 1_j (see `algebra`), and
1_j is the identity on the columns with s_c = 2j and zero on the others,
so `represent` reads the matrix straight off the element: for each term
c * w 1_j it adds c times the columns of w's matrix with s_c = 2j.

Each copy contributes one shape template (`_ladder_cells`): nine cells
on a ladder copy, one pass-through bottom cell on a full copy.  The
product of the two copies' templates predicts where each named element
may act and with which unit entries, and the per-copy repeated cells
multiply out to the repeated diagonal sub-blocks.  Each block is
realized once and checked in one walk over its elements
(`verify_block_shape`): each element's matrices are compared with the
prediction (the displayed action tables), split into cells once for the
forced zeros, the repeated diagonal sub-blocks and the misprint
adjudication at the re-entry cell, and added to the span whose exact
rank gives faithfulness; no block element's matrix is kept after its
block's checks.  The corner blocks' matrix-unit law
is derived from those checks and the ladder relations, with no product
(`_verify_matrix_units`).  Each central element, a sum of
named elements (`BlockSystem.central_element`), is represented on every
summand against its prescription: one drop (top to bottom) or
pass-through per copy.  A block center is solved over the block's
elements of Z^2-degree zero only, picked by K-weight before any element
is built (`degree_zero_elements`; the proof that nothing is lost is in
`center_basis`), so neither it nor the central elements build the block
realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .algebra import AlgebraElement
from .cyclo import CycloNumber, Params
from .ideals import BlockLabel, BlockSystem, NamedElement, ProjectiveSummand
from .linalg import IncrementalSpan, Matrix, Vector, nullspace
from .report import Check

GENERATOR_NAMES = ("e1", "e2", "f1", "f2", "K")

# One ladder copy's shape template: (row role, column role, element role,
# reflected).  An element whose role on this copy is the element role acts
# at the (row, column) cell; a reflected element comes from the other
# class of the copy (sign flipped, ladder size p - r).
_LADDER_TEMPLATE = (
    ("top", "top", "top", 0), ("bottom", "bottom", "top", 0),
    ("left", "top", "left", 0), ("right", "top", "right", 0),
    ("bottom", "top", "bottom", 0),
    ("left", "left", "top", 1), ("right", "right", "top", 1),
    ("bottom", "left", "right", 1), ("bottom", "right", "left", 1),
)
# Template cells with equal tags: the repeated diagonal sub-blocks.
_LADDER_REPEATS = ((("top", "top"), ("bottom", "bottom")),
                   (("left", "left"), ("right", "right")))


def _ladder_cells(r: int, p: int):
    """Copy template at ladder size r of p: (row role, column role,
    element role, element ladder size, reflected) per cell.  A full copy
    (r = p) contributes one pass-through bottom cell that keeps the sign.
    """
    if r == p:
        return (("bottom", "bottom", "bottom", p, 0),)
    return tuple((row, col, role, p - r if flip else r, flip)
                 for row, col, role, flip in _LADDER_TEMPLATE)


# central element names by the ladder positions (first, second) dropped
_DROP_NAMES = {(): "unit", (0,): "arrow-drop", (1,): "top-drop",
               (0, 1): "corner-drop"}


# ----------------------------------------------------------------------
# Monomial matrices
# ----------------------------------------------------------------------

def pbw_matrices(params: Params,
                 gens: Mapping[str, Matrix]) -> Iterator[Matrix]:
    """Matrices of the (p1 p2)^2 K-free words e1^m1 e2^m2 f1^n1 f2^n2, in
    word order (`Algebra.word_index`).

    ``gens`` maps e1, e2, f1 and f2 to their matrices on any module.  A
    word is literally the product of its generator powers, so its matrix
    is the matching product of generator matrices; the loop nest mirrors
    the basis enumeration and shares partial products.  Every power list
    starts with one shared identity matrix, and a product with it is
    skipped, so a yielded matrix may be the identity, a generator matrix
    or another yielded matrix: callers only read them.  Callers that need
    w K^ell scale the columns of w's matrix by K's diagonal.
    """
    ident = Matrix.identity(params.field, gens["e1"].nrows)

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
    for m1 in range(p1):
        for m2 in range(p2):
            left = times(e1[m1], e2[m2])
            for n1 in range(p1):
                mid = times(left, f1[n1])
                for n2 in range(p2):
                    yield times(mid, f2[n2])


def diagonal_exponents(field, kmat: Matrix, where) -> List[int]:
    """s_c with K e_c = zeta^(s_c) e_c; K must be a diagonal of roots of
    unity, else ArithmeticError naming ``where``."""
    out = []
    for c in range(kmat.ncols):
        rows = kmat.get(c)
        s = None
        if rows is not None and len(rows) == 1 and c in rows:
            s = field.root_exponent(rows[c])
        if s is None:
            raise ArithmeticError(
                f"K is not diagonal with root-of-unity entries on "
                f"{where} (column {c})")
        out.append(s)
    return out


def twisted_trace(params: Params, words: Iterable[Matrix],
                  k_exp: Sequence[int], cells: Sequence[Tuple[int, int]],
                  shift: int = 0) -> Dict[int, CycloNumber]:
    """The trace of K^shift x over ``cells``, by basis monomial: maps the
    index of w K^ell to the sum over (r, c) in ``cells`` of

        zeta^(shift s_r + ell s_c) w[r, c],

    ``words`` the matrices of the K-free words in word order
    (`pbw_matrices`, `Realization.monomial_matrices`) and s = ``k_exp``
    K's exponents (`diagonal_exponents`); zeros are left out.  Each
    word's cells are read once and grouped by s_c before the korder
    K-exponents are expanded.

    K is diagonal on the projective ideals and on the simple modules
    (`diagonal_exponents` raises otherwise), so (K^t w K^ell)[r, c] =
    zeta^(t s_r + ell s_c) w[r, c].  The same value also reads K^t w K^ell
    = zeta^(t wt w) w K^(ell + t), wt w the K-conjugation weight: the two
    agree because rho(K) rho(w) = zeta^(wt w) rho(w) rho(K) forces s_r =
    s_c + wt w on every nonzero entry of w.
    """
    zeta = params.field.zeta_pows
    N, korder = params.N, params.korder
    out: Dict[int, CycloNumber] = {}
    for w, mat in enumerate(words):
        by_exp: Dict[int, CycloNumber] = {}
        for r, c in cells:
            val = mat.get(c, {}).get(r)
            if val is None:
                continue
            val = val * zeta[(shift * k_exp[r]) % N]
            cur = by_exp.get(k_exp[c])
            by_exp[k_exp[c]] = val if cur is None else cur + val
        if not by_exp:
            continue
        for ell in range(korder):
            acc = params.zero
            for s, val in by_exp.items():
                acc = acc + val * zeta[(s * ell) % N]
            if not acc.is_zero():
                out[w * korder + ell] = acc
    return out


# ----------------------------------------------------------------------
# Layouts
# ----------------------------------------------------------------------

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
        self._bases: Dict[ProjectiveSummand, List[NamedElement]] = {}
        self._gen_mats: Dict[ProjectiveSummand, Dict[str, Matrix]] = {}
        self._monomials: Dict[ProjectiveSummand, List[Matrix]] = {}
        self._k_exponents: Dict[ProjectiveSummand, List[int]] = {}
        self._k_columns: Dict[ProjectiveSummand, Dict[int, List[int]]] = {}
        self._cells: Dict[ProjectiveSummand, Dict[tuple, list]] = {}
        self._degree_zero: Dict[BlockLabel, tuple] = {}
        # label -> (center basis, number of commutator equations)
        self._centers: Dict[BlockLabel, Tuple[List[Vector], int]] = {}
        # label -> outcome of the block's faithful row, once shapes ran
        self._faithful: Dict[BlockLabel, bool] = {}

    # ------------------------------------------------------------------
    # Layouts and bases
    # ------------------------------------------------------------------

    def layout(self, summand: ProjectiveSummand) -> GroupLayout:
        """Flat offsets of the summand's families (`ladder_families`)."""
        cached = self._layouts.get(summand)
        if cached is not None:
            return cached
        sizes = {}
        offsets = {}
        pos = 0
        for name, fam in self.system.ladder_families(summand.r1,
                                                     summand.r2).items():
            sizes[name] = fam.sizes
            offsets[name] = pos
            pos += fam.sizes[0] * fam.sizes[1]
        out = GroupLayout(tuple(sizes), sizes, offsets, pos)
        self._layouts[summand] = out
        return out

    def _basis(self, summand: ProjectiveSummand) -> List[NamedElement]:
        """The summand's slot-(1, 1) ideal basis, checked independent by
        an untracked rank, so that coordinates over it are unique."""
        cached = self._bases.get(summand)
        if cached is not None:
            return cached
        A = self.algebra
        els = self.system.ideal_basis(*summand, 1, 1)
        span = IncrementalSpan(self.params.field)
        for el in els:
            if not span.add({A.monomial_index(m): c
                             for m, c in el.value.terms.items()}):
                raise ArithmeticError(
                    f"dependent projective basis vector "
                    f"{(el.family, el.arrow, el.idx1, el.idx2)} on {summand}")
        self._bases[summand] = els
        return els

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------

    def generator_matrix(self, summand: ProjectiveSummand,
                         gen: str) -> Matrix:
        """Left multiplication by a generator on the summand's slot-(1, 1)
        ideal, read off its verified action table
        (`BlockSystem.generator_matrix`, which refuses an unverified
        column).  The basis is independent (`_basis`), so the columns hold
        the unique coordinates."""
        mats = self._gen_mats.setdefault(summand, {})
        cached = mats.get(gen)
        if cached is None:
            self._basis(summand)
            cached = mats[gen] = self.system.generator_matrix(summand, gen)
        return cached

    def monomial_matrices(self, summand: ProjectiveSummand) -> List[Matrix]:
        """Matrices of the K-free words, in word order (`pbw_matrices`)."""
        cached = self._monomials.get(summand)
        if cached is not None:
            return cached
        gens = {g: self.generator_matrix(summand, g)
                for g in ("e1", "e2", "f1", "f2")}
        out = list(pbw_matrices(self.params, gens))
        self._monomials[summand] = out
        return out

    def k_exponents(self, summand: ProjectiveSummand) -> List[int]:
        """s_c for each ideal basis vector c: K acts on it as zeta^(s_c).

        Read off K's generator matrix, which must be a diagonal of roots
        of unity.
        """
        cached = self._k_exponents.get(summand)
        if cached is None:
            cached = diagonal_exponents(
                self.params.field, self.generator_matrix(summand, "K"),
                summand)
            self._k_exponents[summand] = cached
        return cached

    def represent(self, x: AlgebraElement,
                  summand: ProjectiveSummand) -> Matrix:
        """Left-multiplication matrix of x on the summand's ideal.

        Each projector term c * w 1_j adds c times the columns of w's
        matrix on which K acts as lambda_j = zeta^(2j); no polynomial is
        evaluated.
        """
        words = self.monomial_matrices(summand)
        columns = self._k_columns.get(summand)
        if columns is None:
            columns = {}
            for c, s in enumerate(self.k_exponents(summand)):
                columns.setdefault(s, []).append(c)
            self._k_columns[summand] = columns
        word_index = self.algebra.word_index
        acc = Matrix(self.params.field, self.layout(summand).dim)
        for key, c in x.terms.items():
            cols = columns.get(2 * key[4])
            if cols:
                acc.add_column_scaled(words[word_index(key)],
                                      dict.fromkeys(cols, c))
        return acc

    def block_realization(self, label: BlockLabel) -> BlockRealization:
        """The block's elements, in summand and `BlockSystem.slots` order,
        with each one's matrix on every summand of the block; built afresh
        on each call and not kept."""
        summands = self.system.summands_of(label)
        elements: List[NamedElement] = []
        for S in summands:
            for s1, s2 in self.system.slots(S.r1, S.r2):
                elements.extend(self.system.ideal_basis(*S, s1, s2))
        matrices = [tuple(self.represent(el.value, S) for S in summands)
                    for el in elements]
        return BlockRealization(label, summands, elements, matrices)

    # ------------------------------------------------------------------
    # Predicted matrices
    # ------------------------------------------------------------------

    def _cell_table(self, summand: ProjectiveSummand) -> Dict[tuple, list]:
        """The product of the two copies' templates on one summand:
        (element roles, element ladder sizes, element sign) -> the (row
        family, column family) cells where such an element acts.

        Matching the full tag keeps the prediction correct when reflected
        ladder sizes coincide.
        """
        cached = self._cells.get(summand)
        if cached is not None:
            return cached
        r1, r2 = summand.r1, summand.r2
        name = self.system.family_name
        out: Dict[tuple, list] = {}
        for row1, col1, role1, h1, flip1 in _ladder_cells(r1, self.p1):
            for row2, col2, role2, h2, flip2 in _ladder_cells(r2, self.p2):
                tag = ((role1, role2), (h1, h2),
                       summand.alpha * (-1) ** (flip1 + flip2))
                out.setdefault(tag, []).append(
                    (name(r1, r2, (row1, row2)), name(r1, r2, (col1, col2))))
        self._cells[summand] = out
        return out

    def expected_matrix(self, el: NamedElement,
                        summand: ProjectiveSummand) -> Matrix:
        """The 0/1 matrix the action displays predict for one element.

        An element contributes a unit entry at (its own index pair, the
        slot pair of the column family) for every product cell whose
        roles, ladder sizes and sign all match its own.
        """
        lay = self.layout(summand)
        one = self.params.field.one
        out = Matrix(self.params.field, lay.dim)
        roles = self.system.ladder_families(el.r1, el.r2)[
            (el.family, el.arrow)].roles
        for row, col in self._cell_table(summand).get(
                (roles, (el.r1, el.r2), el.alpha), ()):
            out.put(lay.flat(*row, el.idx1, el.idx2),
                    lay.flat(*col, el.s1 - 1, el.s2 - 1), one)
        return out

    def occupied_cells(self, summand: ProjectiveSummand) -> frozenset:
        """Group pairs allowed to carry entries on this summand."""
        return frozenset(cell for cells in self._cell_table(summand).values()
                         for cell in cells)

    def _repeat_partners(self, summand: ProjectiveSummand):
        """Pairs of sub-blocks that must coincide: each ladder copy's
        repeated cells, at every row and column role of the other copy."""
        r1, r2 = summand.r1, summand.r2
        roles = (self.system.copy_roles(1, r1), self.system.copy_roles(2, r2))

        def name(d, mine, other):
            pair = (mine, other) if d == 1 else (other, mine)
            return self.system.family_name(r1, r2, pair)

        pairs = []
        for d in self.system.ladder_copies(r1, r2):
            other = roles[2 - d]
            for repeat in _LADDER_REPEATS:
                for x, y in product(other, other):
                    pairs.append(tuple((name(d, row, x), name(d, col, y))
                                       for row, col in repeat))
        return tuple(pairs)

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
    # Verification: one walk per block
    # ------------------------------------------------------------------

    def _verify_matrix_units(self, label: BlockLabel, n: int, action_ok: bool,
                             faithful_ok: bool) -> Check:
        """The corner products obey the matrix-unit law, derived from
        three premises with no product in the algebra.

        A corner block has one class and no ladder copy, so its element
        x at slot s and index a is B/down, and its want for x y is B/down
        at x's index and y's slot when x's slot pair is y's index pair,
        and 0 otherwise.  Let rho be the realization on the class's
        slot-(1, 1) ideal and V the span of the block's elements.

        * `action-table`: rho(x) is the single unit entry E_(a, s) (row
          x's index pair, column its slot pair) for every element x, the
          want included, as it is one of them.
        * rho is left multiplication on a left ideal, so rho(x y) =
          rho(x) rho(y) = E_(a, s) E_(b, t) = delta_(s, b) E_(a, t) =
          rho(want): index arithmetic.
        * Closure: y lies in the left ideal of its slot, whose basis
          spans a subspace of V that every generator maps into itself
          (the `ladder[...]` relations of that ideal, each product in A
          compared with its image); A is generated by them (K^-1 is a
          power of K), so x y lies in V.
        * `faithful`: the block's matrices have rank n, so rho is
          injective on V, and x y - want, in V with rho zero, is zero.

        The check fails, naming the premise, when any premise fails.
        """
        prefix = f"realization[{label.r1},{label.r2}]"
        catalog = self.system.primitive_idempotent_catalog(label)
        ladder = [bad.check for entry in catalog
                  for bad in self.system.ladder_failures(*entry[1:])]
        premises = {f"{prefix}.action-table": action_ok,
                    f"{prefix}.faithful": faithful_ok,
                    ladder[0] if ladder else "ladder": not ladder}
        failed = [name for name, ok in premises.items() if not ok]
        return Check(
            f"{prefix}.matrix-unit-products", not failed,
            "; ".join(f"premise {name} fails" for name in failed)
            + "; the matrix-unit law is derived from it" if failed else
            f"all {n * n} ordered products obey E_ab E_cd = delta_bc E_ad, "
            f"derived from {prefix}.action-table, {prefix}.faithful and "
            f"the ladder relations of the block's {len(catalog)} left ideals",
            anchor="corner-matrix-units",
            scope=(f"derived: {n * n} ordered products, none expanded in the "
                   f"algebra; premises action-table, faithful and the "
                   f"ladder closure of {len(catalog)} left ideals"))

    def verify_block_shape(self, label: BlockLabel) -> List[Check]:
        """The block's rows, from one walk over its elements: action-table,
        matrix-unit-products (corner blocks), forced-zeros,
        repeated-diagonals, faithful, dimension, unit-matrix and
        reentry-cell-family (blocks with one ladder copy).

        The block is realized once (`block_realization`) and nothing is
        kept after the rows are made.  Each element's matrix tuple is
        compared with its predicted unit entries (`expected_matrix`):
        equality of the full matrices covers both directions at once, every
        displayed action reproduced and every action the displays omit
        zero.  Each matrix is split into its (row family, column family)
        cells once, and the split is read against the shape template, the
        repeated sub-block pairs and the re-entry cell.  The tuple, one
        vector keyed (summand, column, row), goes into one span whose exact
        rank gives faithful, dimension and a premise of the matrix-unit law.
        """
        real = self.block_realization(label)
        ladders = self.system.block_ladders(label)
        r1, r2 = label
        prefix = f"realization[{r1},{r2}]"
        lays = [self.layout(S) for S in real.summands]
        groups = [self._group_of(lay) for lay in lays]
        occupied = [self.occupied_cells(S) for S in real.summands]
        partners = [self._repeat_partners(S) for S in real.summands]
        # One boundary shape display labels the (down, right) cell of the
        # minus-sign summand (position 1) with the minus superscript but
        # the plus-side subscripts.  By the diagonal symmetry the cell
        # belongs to the plus-sign left family; the minus-sign left family
        # lives in the (left, up) cell instead.  Both readings are tested
        # on content, on each block with one ladder copy.
        reentry = len(ladders) == 1
        cell = (("B", "down"), ("B", "right"))
        n = len(real.elements)
        per_element = (f"exhaustive: {n} elements × {len(real.summands)} "
                       f"summands")

        mismatches = []
        entries = zero_bad = repeat_bad = 0
        corrected_missing = printed_hits = minus_seen = plus_seen = 0
        span = IncrementalSpan(self.params.field)
        for el, mats in zip(real.elements, real.matrices):
            split = []
            for S, mat, lay, group_of, occ, parts in zip(
                    real.summands, mats, lays, groups, occupied, partners):
                want = self.expected_matrix(el, S)
                entries += sum(len(rows) for rows in want.values())
                if want != mat:
                    mismatches.append(
                        ((el.family, el.arrow, el.alpha, el.r1, el.r2,
                          el.s1, el.s2, el.idx1, el.idx2), tuple(S)))
                cells = self._cellwise(mat, lay, group_of)
                if not set(cells).issubset(occ):
                    zero_bad += 1
                for pair_a, pair_b in parts:
                    if cells.get(pair_a, {}) != cells.get(pair_b, {}):
                        repeat_bad += 1
                split.append(cells)
            if reentry and el.arrow == "left":
                if el.alpha == 1:
                    plus_seen += 1
                    corrected_missing += cell not in split[1]
                else:
                    minus_seen += 1
                    printed_hits += cell in split[1]
            span.add({(s, col, row): val for s, mat in enumerate(mats)
                      for col, rows in mat.items()
                      for row, val in rows.items()})
        rank = span.rank
        self._faithful[label] = rank == n

        detail = (f"{n} elements on {len(real.summands)} summands; "
                  f"{entries} displayed unit entries reproduced, omitted "
                  f"positions zero")
        if mismatches:
            detail += f"; first failure {mismatches[0]}"
        checks = [Check(f"{prefix}.action-table", not mismatches, detail,
                        anchor="block-action-tables",
                        scope=f"{per_element}, full matrices")]
        if not ladders:
            checks.append(self._verify_matrix_units(
                label, n, not mismatches, rank == n))
        checks.append(Check(
            f"{prefix}.forced-zeros", zero_bad == 0,
            f"support of every element matrix confined to the shape "
            f"template; violations: {zero_bad}", anchor="block-shape-zeros",
            scope=(f"{per_element}, full matrices against "
                   f"{sum(map(len, occupied))} template cells")))
        checks.append(Check(
            f"{prefix}.repeated-diagonals", repeat_bad == 0,
            f"diagonal sub-block pairs coincide entry for entry; "
            f"violations: {repeat_bad}", anchor="block-shape-repeats",
            scope=(f"{per_element}, {sum(map(len, partners))} sub-block "
                   f"pairs per element")))
        checks.append(Check(
            f"{prefix}.faithful", rank == n,
            f"joint matrix tuples of the {n} block basis elements have "
            f"rank {rank}", anchor="block-realization-rank",
            scope=(f"exhaustive: exact rank of {n} elements' matrices on "
                   f"{len(real.summands)} summands")))

        # p_d^2 per full copy, 2 p_d^2 per ladder copy
        want = (self.p1 * self.p2) ** 2 * 2 ** len(ladders)
        checks.append(Check(
            f"{prefix}.dimension", n == want and rank == want,
            f"realized subalgebra dimension {rank}, block dimension "
            f"{want}", anchor="block-dimension",
            scope=(f"exhaustive: {n} block elements counted, with the exact "
                   f"rank of faithful")))

        field = self.params.field
        unit = self.system.block_idempotent(label)
        ident_ok = all(
            self.represent(unit, S) == Matrix.identity(field, lay.dim)
            for S, lay in zip(real.summands, lays))
        foreign = [S for lab in self.system.block_labels() if lab != label
                   for S in self.system.summands_of(lab)]
        zero_ok = all(self.represent(unit, S).is_zero() for S in foreign)
        checks.append(Check(
            f"{prefix}.unit-matrix", ident_ok and zero_ok,
            f"block idempotent acts as the identity on its "
            f"{len(real.summands)} own summands and as zero on the "
            f"{len(foreign)} summands of the other blocks",
            anchor="block-unit-matrix",
            scope=(f"exhaustive: {len(real.summands)} own + {len(foreign)} "
                   f"other summands, full matrices")))

        if reentry:
            checks.append(Check(
                f"{prefix}.reentry-cell-family",
                corrected_missing == 0 and printed_hits == 0 and plus_seen > 0,
                f"plus-sign left family populates the re-entry cell "
                f"({plus_seen} elements, {corrected_missing} missing); the "
                f"printed minus-sign reading contributes nothing there "
                f"({printed_hits} hits over {minus_seen} candidates)",
                anchor="shape-misprint-adjudication", corrected=True,
                scope=(f"exhaustive: {plus_seen + minus_seen} left-family "
                       f"elements, full matrices on summand "
                       f"{tuple(real.summands[1])}")))
        return checks

    # ------------------------------------------------------------------
    # Central elements and the block center
    # ------------------------------------------------------------------

    def central_drops(self, label: BlockLabel
                      ) -> List[Tuple[str, Dict[int, int], Tuple[int, ...]]]:
        """(name, {dropped copy: reflection flag}, summand positions) of
        each central element, in a fixed order.

        Dropping a set of ladder copies sends the top role to the bottom
        role on each of them and keeps every role of the other copy; it
        acts on the summands that share the flags on the dropped copies.
        Dropping no copy is the unit.  The names are unit, then top-drop
        (second ladder copy), arrow-drop (first) and corner-drop (both),
        each followed by its summand positions.
        """
        ladders = self.system.block_ladders(label)
        flags = [f for f, _ in self.system.reflections(label)]
        drop_sets = sorted(
            (tuple(d for d, drop in zip(ladders, pick) if drop)
             for pick in product((0, 1), repeat=len(ladders))), key=len)
        out = []
        for dropped in drop_sets:
            groups: Dict[tuple, List[int]] = {}
            for pos, f in enumerate(flags):
                groups.setdefault(tuple(f[d - 1] for d in dropped),
                                  []).append(pos)
            stem = _DROP_NAMES[tuple(ladders.index(d) for d in dropped)]
            for key, positions in groups.items():
                name = (f"{stem}-{''.join(map(str, positions))}" if dropped
                        else stem)
                out.append((name, dict(zip(dropped, key)), tuple(positions)))
        return out

    def central_prescriptions(self, label: BlockLabel
                              ) -> Dict[str, List[Matrix]]:
        """Matrix prescriptions of the block's central elements: each
        drop of `central_drops` as an index-preserving unit map on its
        summands (top to bottom on the dropped copies, each role to itself
        on the others), zero on the others."""
        summands = self.system.summands_of(label)
        lays = [self.layout(S) for S in summands]
        one = self.params.field.one
        out: Dict[str, List[Matrix]] = {}
        for name, flags, positions in self.central_drops(label):
            mats = [Matrix(self.params.field, lay.dim) for lay in lays]
            for pos in positions:
                (_, r1, r2), lay = summands[pos], lays[pos]
                moves = [[("bottom", "top")] if d in flags else
                         [(role, role) for role in self.system.copy_roles(d, r)]
                         for d, r in ((1, r1), (2, r2))]
                for (dst1, src1), (dst2, src2) in product(*moves):
                    src = self.system.family_name(r1, r2, (src1, src2))
                    dst = lay.offsets[self.system.family_name(
                        r1, r2, (dst1, dst2))]
                    for t in range(lay.sizes[src][0] * lay.sizes[src][1]):
                        mats[pos][lay.offsets[src] + t] = {dst + t: one}
            out[name] = mats
        return out

    def central_elements(self, label: BlockLabel) -> Dict[str, AlgebraElement]:
        """Each drop of `central_drops` as `BlockSystem.central_element`."""
        return {name: self.system.central_element(label, flags)
                for name, flags, _ in self.central_drops(label)}

    def degree_zero_elements(self, label: BlockLabel
                             ) -> Tuple[List[Tuple[int, NamedElement]], int]:
        """The block's elements of Z^2-degree (0, 0), each with its index
        in `block_realization(label).elements`, and the number of block
        elements; memoised per block.

        The walk follows the order of `block_realization` (summands,
        their slots, the keys of `ideal_basis`) and builds an element only
        when its left K-weight (`family_weight`) equals its slot's right
        eigenvalue, the inverse of `averager_ratio`: the two-sided
        slicing of `blocks.total-rank`.  `center_basis` proves that this
        picks out degree zero.
        """
        cached = self._degree_zero.get(label)
        if cached is not None:
            return cached
        system = self.system
        selected: List[Tuple[int, NamedElement]] = []
        k = 0
        for S in system.summands_of(label):
            families = system.ladder_families(S.r1, S.r2).values()
            for s1, s2 in system.slots(S.r1, S.r2):
                right = system.averager_ratio(*S, s1, s2).inverse()
                for fam in families:
                    h1, h2 = fam.sizes
                    for i2, i1 in product(range(h2), range(h1)):
                        if system.family_weight(fam, S.alpha, i1, i2) == right:
                            selected.append((k, system.build_named_element(
                                fam.family, fam.arrow, *S, s1, s2, i1, i2)))
                        k += 1
        out = (selected, k)
        self._degree_zero[label] = out
        return out

    def commutator_equations(self, label: BlockLabel
                             ) -> Dict[tuple, Dict[int, CycloNumber]]:
        """The center's linear system over the degree-zero elements:
        {(summand, generator, row, col): {element k: [M_k, G][row, col]}},
        nonzero entries only, with k the index in
        `block_realization(label).elements` and the generator's index in
        `GENERATOR_NAMES`.  K is left out: it commutes with every
        degree-zero element, so its rows would be empty.  Each matrix M_k
        is represented afresh (`represent`).

        Each commutator M G - G M is built entry by entry, with no matrix
        product: an entry M[r, c] = v of the element adds v G[c, c'] at
        (r, c') for each entry of G's row c (read off G's transpose,
        indexed once per summand) and subtracts G[r', r] v at (r', c) for
        each entry of G's column r.  Entries that cancel within one
        commutator are dropped, so the keys and values are exactly the
        nonzero entries of M G - G M.
        """
        selected, _ = self.degree_zero_elements(label)
        equations: Dict[tuple, Dict[int, CycloNumber]] = {}
        for s_idx, S in enumerate(self.system.summands_of(label)):
            gens = []
            for g in GENERATOR_NAMES:
                if g == "K":
                    continue
                G = self.generator_matrix(S, g)
                rows_of: Dict[int, Dict[int, CycloNumber]] = {}
                for col, rows in G.items():
                    for row, val in rows.items():
                        rows_of.setdefault(row, {})[col] = val
                gens.append((G, rows_of))
            for k, el in selected:
                M = self.represent(el.value, S)
                entries = [(r, c, v, -v) for c, rows in M.items()
                           for r, v in rows.items()]
                for g_idx, (G, rows_of) in enumerate(gens):
                    acc: Dict[Tuple[int, int], CycloNumber] = {}
                    for r, c, v, neg_v in entries:
                        for c2, gv in rows_of.get(c, {}).items():
                            add = v * gv
                            cur = acc.get((r, c2))
                            acc[(r, c2)] = add if cur is None else cur + add
                        for r2, gv in G.get(r, {}).items():
                            add = gv * neg_v
                            cur = acc.get((r2, c))
                            acc[(r2, c)] = add if cur is None else cur + add
                    for (row, col), val in acc.items():
                        if not val.is_zero():
                            equations.setdefault(
                                (s_idx, g_idx, row, col), {})[k] = val
        return equations

    def center_basis(self, label: BlockLabel):
        """Basis of the block's center, as coordinate vectors over
        `block_realization(label).elements`, memoised per block; the
        returned list is shared, so callers only read it.

        It is the nullspace of `commutator_equations`, which has a column
        for each degree-zero element only and no K rows; the block
        realization is never built for it.  This is the nullspace of the
        full system (every element, all five generators), vector for
        vector:

        * Every relation is homogeneous for deg e_i = +eps_i, deg f_i =
          -eps_i, deg K = 0, and a block element x = sum w 1_j is
          homogeneous of degree d = (a, b), |a| < p1, |b| < p2.  K x K^-1
          = zeta^(4 p2 a + 4 p1 b) x, and that factor is 1 only at d =
          (0, 0): p1 | p2 a forces a = 0 and p2 | p1 b forces b = 0, as
          p1 and p2 are coprime.
        * Every element of the ideal of slot (s1, s2) is x = x v with v
          the slot's averager, and v K = ratio^-1 v, so x K = ratio^-1 x;
          K x = w x with w the left weight.  So x has degree zero exactly
          when w = ratio^-1, and then K's commutator rows vanish on x.
        * The block acts faithfully on its summands (the exact rank of
          `faithful`, which `verify_block_shape` records per block and
          `center-dimension` reads as its premise), so the matrices M_k
          are independent.  K's rows read sum_k c_k (1 - lambda_k) M_k
          rho(K) = 0, with K x_k K^-1 = lambda_k x_k, so c_k = 0
          wherever lambda_k != 1: the full nullspace holds no vector
          with a nonzero-degree coordinate, and it equals this one with
          the other columns set to zero.
        * Elimination keeps leads at the smallest index, so the basis
          vector of a free coordinate f (x_f = 1, 0 at the other free
          coordinates) is nonzero only at f and at pivots below f.  The
          free coordinates are then the largest indices that nullspace
          vectors reach, and each basis vector is fixed by the nullspace
          and the column order alone.  Dropping columns that every
          nullspace vector leaves at zero changes neither.

        `center-dimension` checks that the central elements, built apart
        from this basis (`central_elements`), span its dimension, and
        fails, naming the premise, when the block's `faithful` row failed.
        The basis itself is solved whether or not the shapes suite ran.
        """
        cached = self._centers.get(label)
        if cached is not None:
            return cached[0]
        selected, _ = self.degree_zero_elements(label)
        position = {k: i for i, (k, _) in enumerate(selected)}
        equations = self.commutator_equations(label)
        rows = ({position[k]: v for k, v in row.items()}
                for row in equations.values())
        basis = [{selected[i][0]: c for i, c in vec.items()}
                 for vec in nullspace(self.params.field, rows, len(selected))]
        self._centers[label] = (basis, len(equations))
        return basis

    def center_dimension(self, label: BlockLabel) -> int:
        return len(self.center_basis(label))

    def verify_central_elements(self, label: BlockLabel) -> List[Check]:
        """The central elements realize their prescriptions, commute with
        everything, and square right; the drop-free one is the block
        idempotent."""
        prefix = f"realization[{label.r1},{label.r2}]"
        checks: List[Check] = []
        named = self.central_elements(label)
        prescriptions = self.central_prescriptions(label)
        summands = self.system.summands_of(label)
        A = self.algebra
        gens = [A.generator(g) for g in GENERATOR_NAMES]
        # lists, not generators: every comparison the scope states is made
        failed = [name for name, z in named.items()
                  if any([self.represent(z, S) != want
                          for S, want in zip(summands, prescriptions[name])]
                         + [z * g != g * z for g in gens])]
        checks.append(Check(
            f"{prefix}.central-preimages", not failed,
            f"{len(named)} central elements summed from named elements, "
            f"matched against their prescriptions and checked against five "
            f"generators; failures: {failed or 'none'}",
            anchor="central-element-preimages",
            scope=(f"exhaustive: {len(named)} central elements × "
                   f"{len(summands)} summands, full matrices, and × "
                   f"{len(gens)} generators, commutators in the algebra")))

        # block_idempotent sums primitive_idempotent, which is
        # _slot_element with nothing dropped, over the catalog
        catalog = [entry[1:] for entry in
                   self.system.primitive_idempotent_catalog(label)]
        checks.append(Check(
            f"{prefix}.unit-preimage",
            sorted(self.system.central_slots(label, {})) == sorted(catalog),
            "the drop-free central element is the block idempotent",
            anchor="central-element-preimages",
            scope=(f"derived: both are the sum of _slot_element with nothing "
                   f"dropped over the same {len(catalog)} slots, compared "
                   f"as slot lists, no algebra")))

        drops = {n: z for n, z in named.items() if n != "unit"}
        not_nilpotent = [n for n, z in drops.items()
                         if not (z * z).is_zero()]
        checks.append(Check(
            f"{prefix}.drop-squares", not not_nilpotent,
            f"{len(drops)} drop elements square to zero in the algebra; "
            f"failures: {not_nilpotent or 'none'}",
            anchor="central-element-preimages",
            scope=f"exhaustive: {len(drops)} drop elements squared in the "
                  f"algebra"))

        span = IncrementalSpan(self.params.field)
        for z in named.values():
            span.add({A.monomial_index(m): c for m, c in z.terms.items()})
        # per ladder copy, keep or drop at either reflection flag
        want = 3 ** len(self.system.block_ladders(label))
        dim = self.center_dimension(label)
        n_equations = self._centers[label][1]
        selected, n_elements = self.degree_zero_elements(label)
        # the nullspace drops K's rows and the other columns because the
        # block acts faithfully (`center_basis`); the shapes suite decides
        # that premise, and a run without it says so
        faithful = self._faithful.get(label)
        detail = (f"commutator nullspace dimension {dim} (expected {want}); "
                  f"the central family spans {span.rank}")
        if faithful is False:
            detail += f"; premise {prefix}.faithful fails"
        premise = ("premise faithful not checked in this run"
                   if faithful is None else
                   f"premise {prefix}.faithful from the shapes suite")
        checks.append(Check(
            f"{prefix}.center-dimension",
            dim == want and span.rank == dim and faithful is not False,
            detail, anchor="block-center-dimension",
            scope=(f"exhaustive: {n_equations} commutator equations over "
                   f"the {len(selected)} degree-zero of {n_elements} block "
                   f"elements; {premise}")))
        return checks
