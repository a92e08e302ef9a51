"""Exact linear algebra over a fixed cyclotomic field.

Two shapes of data pass through this module, both sparse with zero
entries never stored.  Vectors are plain dicts mapping coordinate index
-> CycloNumber; they carry coordinates of algebra elements in the
ordered monomial basis (hundreds of coordinates, mostly empty).
Matrices are the one `Matrix` type: a dict from column index to a
{row index: value} dict that also records its shape.  Every matrix in
the package uses it -- generator actions on the simple modules (a few
dozen rows at most) and left multiplication on the projective ideals of
a block (the realizations, where most entries are zero).

All elimination happens in the field itself.  CycloNumber arithmetic is
exact -- gcd-normalized integer coefficient vectors over a common
denominator -- so ordinary Gaussian elimination never loses precision
and never needs pivot-growth tricks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from .cyclo import CycloField, CycloNumber, _mixed

Vector = Dict[int, CycloNumber]


def scale_into(target: Vector, source: Vector, factor: CycloNumber) -> None:
    """target -= factor * source, in place, dropping cancelled entries."""
    if factor.is_zero():
        return
    for idx, coeff in source.items():
        add = factor * coeff
        cur = target.get(idx)
        tot = -add if cur is None else cur - add
        if tot.is_zero():
            target.pop(idx, None)
        else:
            target[idx] = tot


class IncrementalSpan:
    """A row-reduced spanning set grown one vector at a time.

    Rows are kept keyed by their leading (smallest) index with leading
    coefficient one, so reduction of a new vector is a straight sweep.
    A row with one entry is the unit row ``{lead: 1}``: it reduces a
    vector by deleting that coordinate, and a one-entry residual is stored
    as it without inverting its pivot, so equations of the form
    "x_i = 0" cost no field arithmetic.  With ``track=True`` every row
    also remembers how it was formed from the raw input vectors, which
    turns span membership into an exact coordinate solve:
    ``coordinates(x)`` returns ``{input position: coefficient}`` with
    ``x == sum(c_i * input_i)``.
    """

    def __init__(self, field: CycloField, track: bool = False):
        self.field = field
        self.track = track
        self.rows: Dict[int, Vector] = {}
        self._row_combos: Dict[int, Dict[int, CycloNumber]] = {}
        self._inputs_seen = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Vector):
        """Sweep vec against stored rows; return (residual, combo used)."""
        residual = dict(vec)
        combo: Dict[int, CycloNumber] = {}
        while residual:
            lead = min(residual)
            row = self.rows.get(lead)
            if row is None:
                break
            factor = residual[lead]
            if len(row) == 1:
                del residual[lead]
            else:
                scale_into(residual, row, factor)
            if self.track:
                scale_into(combo, self._row_combos[lead], -factor)
        return residual, combo

    def add(self, vec: Vector) -> bool:
        """Insert a raw vector; return True when it enlarged the span."""
        position = self._inputs_seen
        self._inputs_seen += 1
        residual, combo = self._reduce(vec)
        if not residual:
            return False
        lead = min(residual)
        if len(residual) == 1 and not self.track:
            self.rows[lead] = {lead: self.field.one}
            return True
        inv = residual[lead].inverse()
        self.rows[lead] = {i: c * inv for i, c in residual.items()}
        if self.track:
            # residual = input_position - sum(combo[i] * input_i), so the
            # normalized row rebuilds from the inputs with combo negated.
            row_combo = {i: -c for i, c in combo.items()}
            row_combo[position] = self.field.one
            self._row_combos[lead] = {i: c * inv for i, c in row_combo.items()}
        return True

    def contains(self, vec: Vector) -> bool:
        residual, _ = self._reduce(vec)
        return not residual

    def coordinates(self, vec: Vector) -> Optional[Dict[int, CycloNumber]]:
        """Express vec over the raw inputs, or None when outside the span."""
        if not self.track:
            raise ValueError("span was built without combination tracking")
        residual, combo = self._reduce(vec)
        if residual:
            return None
        return {i: c for i, c in combo.items() if not c.is_zero()}


def nullspace(field: CycloField, equations: Iterable[Vector], dim: int) -> List[Vector]:
    """Basis of {x : row . x = 0 for every equation row} in dimension dim.

    The equations are eliminated incrementally (at most ``dim`` survive,
    in echelon form with unit leads); an equation that reduces to a single
    coordinate, "x_i = 0", is stored as the unit row {i: 1} with no field
    arithmetic, and it then eliminates x_i from later equations by
    deletion (`IncrementalSpan`).  Each free coordinate f contributes
    the one solution with x_f = 1 and every other free coordinate 0, found
    by back-substitution: pivot rows are walked by descending lead, with
    x_lead = -sum(row[j] * x_j).  Leads above f are skipped, since their
    coordinates are zero.  No reduced echelon form is built.
    """
    span = IncrementalSpan(field)
    for row in equations:
        span.add(row)
    rows = span.rows
    leads = sorted(rows, reverse=True)
    basis: List[Vector] = []
    for free in range(dim):
        if free in rows:
            continue
        vec: Vector = {free: field.one}
        for lead in leads:
            if lead > free:
                continue
            acc = None
            for j, coeff in rows[lead].items():
                xj = vec.get(j)
                if xj is not None:
                    add = coeff * xj
                    acc = add if acc is None else acc + add
            if acc is not None and not acc.is_zero():
                vec[lead] = -acc
        basis.append(vec)
    return basis


class Matrix(dict):
    """Sparse matrix over the field, stored column by column.

    The matrix *is* the mapping column -> {row: value}: zero entries are
    never stored and an all-zero column is absent, so iterating
    ``items()`` visits exactly the nonzero columns and ``get(col)`` reads
    one column.  ``m[i, j]`` reads a single entry (zero when absent);
    any other key reads as a dict key, so ``m[col]`` is a stored column.
    The shape is kept beside the entries, so a zero matrix still knows
    its dimension and equality compares shapes as well as entries.
    Entry (i, j) is the coefficient of basis vector i in the image of
    basis vector j.  The constructor copies an optional column mapping,
    dropping zeros.
    """

    __slots__ = ("field", "nrows", "ncols")

    def __init__(self, field: CycloField, nrows: int,
                 ncols: Optional[int] = None,
                 columns: Optional[Mapping[int, Mapping[int, CycloNumber]]] = None):
        super().__init__()
        self.field = field
        self.nrows = nrows
        self.ncols = nrows if ncols is None else ncols
        if columns:
            for col, rows in columns.items():
                kept = {r: v for r, v in rows.items() if not v.is_zero()}
                if kept:
                    self[col] = kept

    @classmethod
    def zeros(cls, field: CycloField, nrows: int,
              ncols: Optional[int] = None) -> "Matrix":
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field: CycloField, n: int) -> "Matrix":
        out = cls(field, n)
        one = field.one
        for j in range(n):
            out[j] = {j: one}
        return out

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            return dict.__getitem__(self, key)
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {key} outside shape {self.shape}")
        rows = self.get(j)
        val = None if rows is None else rows.get(i)
        return self.field.zero if val is None else val

    def put(self, i: int, j: int, value: CycloNumber) -> None:
        """Set entry (i, j), dropping it when the value is zero."""
        if value.is_zero():
            rows = self.get(j)
            if rows is not None:
                rows.pop(i, None)
                if not rows:
                    del self[j]
        else:
            self.setdefault(j, {})[i] = value

    def _check_field(self, other: "Matrix") -> None:
        """Refuse a matrix over another field, as `CycloField.scalar`
        refuses a scalar, before any shortcut on empty operands."""
        if other.field.order != self.field.order:
            raise ValueError(_mixed(self.field, other.field))

    def _check_shape(self, other: "Matrix") -> None:
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def add_column_scaled(self, other: "Matrix",
                          scales: Mapping[int, CycloNumber]) -> None:
        """self += other * diag(scales), in place: column j of other is
        scaled by scales[j], and columns absent from scales are skipped."""
        self._check_shape(other)
        for col, coeff in scales.items():
            rows = other.get(col)
            if rows is None:
                continue
            dst = self.setdefault(col, {})
            for row, val in rows.items():
                add = coeff * val
                cur = dst.get(row)
                tot = add if cur is None else cur + add
                if tot.is_zero():
                    dst.pop(row, None)
                else:
                    dst[row] = tot
            if not dst:
                del self[col]

    def _combined(self, other, subtract: bool) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        out = Matrix(self.field, self.nrows, self.ncols, self)
        for col, rows in other.items():
            dst = out.setdefault(col, {})
            for row, val in rows.items():
                cur = dst.get(row)
                if subtract:
                    tot = -val if cur is None else cur - val
                else:
                    tot = val if cur is None else cur + val
                if tot.is_zero():
                    dst.pop(row, None)
                else:
                    dst[row] = tot
            if not dst:
                del out[col]
        return out

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, subtract=False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, subtract=True)

    def __neg__(self) -> "Matrix":
        out = Matrix(self.field, self.nrows, self.ncols)
        for col, rows in self.items():
            out[col] = {row: -val for row, val in rows.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            scalar = self.field.scalar(other)
            if scalar is None:
                return NotImplemented
            out = Matrix(self.field, self.nrows, self.ncols)
            if not scalar.is_zero():
                for col, rows in self.items():
                    out[col] = {row: val * scalar for row, val in rows.items()}
            return out
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        out = Matrix(self.field, self.nrows, other.ncols)
        for col, brows in other.items():
            acc: Dict[int, CycloNumber] = {}
            for mid, bval in brows.items():
                arows = self.get(mid)
                if arows is None:
                    continue
                for row, aval in arows.items():
                    add = aval * bval
                    cur = acc.get(row)
                    tot = add if cur is None else cur + add
                    if tot.is_zero():
                        acc.pop(row, None)
                    else:
                        acc[row] = tot
            if acc:
                out[col] = acc
        return out

    def __rmul__(self, other):
        scalar = self.field.scalar(other)
        if scalar is None:
            return NotImplemented
        return self.__mul__(scalar)

    def __pow__(self, n: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have powers")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        return self.shape == other.shape and dict.__eq__(self, other)

    def __ne__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return not self.__eq__(other)

    def is_zero(self) -> bool:
        return not self

    def is_diagonal(self) -> bool:
        return all(len(rows) == 1 and col in rows
                   for col, rows in self.items())

    def scalar_of_identity(self) -> Optional[CycloNumber]:
        """Return c when the matrix equals c * identity, else None."""
        if self.nrows != self.ncols or self.nrows == 0:
            return None
        if not self:
            return self.field.zero
        if len(self) != self.nrows or not self.is_diagonal():
            return None
        c = self[0, 0]
        return c if all(rows[col] == c for col, rows in self.items()) else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Matrix({self.nrows}x{self.ncols} over zeta_{self.field.order})"
