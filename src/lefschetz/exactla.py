"""Exact linear algebra over the rationals.

Matrices are sparse maps from (row, column) to nonzero exact rationals.
Echelonization clears denominators row by row and hands integer rows to
:mod:`lefschetz.kernels`, so no rounding can occur anywhere in a verdict
path.  The reduced echelon form is canonical for the row space, which makes
ranks, pivot columns, and standard-monomial choices reproducible across
runs.

A value is a Python ``int`` when it is integral and a ``Fraction`` only
where a real denominator appears.  Both are exact: ``int`` and ``Fraction``
are closed under ``+``, ``-`` and ``*`` with each other, an ``int`` equals
and hashes like the integral ``Fraction`` it stands for, and a quotient is
built as ``Fraction(n, d)`` or, when ``d`` divides ``n``, as ``n // d``.
The one inexact operator, ``/`` between two ``int``, which returns a
``float``, is never used.  :func:`_coerce` is the one entry point: every
:class:`RatMatrix` entry that is not already an ``int`` passes through it,
so a matrix row whose denominators have lcm 1 is a row of ``int``.
Arithmetic on two ``Fraction`` values may still give an integral
``Fraction``; it is equally exact and is normalized the next time it
enters a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from . import kernels


class NotSquareError(ValueError):
    """Determinant requested for a non-square matrix."""


def _coerce(value):
    """The exact value of ``value``: an ``int`` when it is integral, else a
    ``Fraction``."""
    if type(value) is int:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _exact_quotient(n: int, d: int):
    """n / d for integers, as an ``int`` when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class RatMatrix:
    """Sparse rational matrix, treated as immutable once constructed.

    ``entries`` maps (row, column) to nonzero values, each an ``int`` or a
    ``Fraction`` with a denominator above 1 (see :func:`_coerce`).
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        cleaned = {}
        if entries:
            for (i, j), value in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(
                        f"entry ({i}, {j}) outside a {rows}x{cols} matrix"
                    )
                if type(value) is not int:
                    value = _coerce(value)
                if value:
                    cleaned[(i, j)] = value
        self.rows = rows
        self.cols = cols
        self.entries = cleaned

    @classmethod
    def from_rows(cls, data: Iterable[Iterable]) -> "RatMatrix":
        """Build from dense row lists; all rows must have equal length."""
        rows = [list(r) for r in data]
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("rows have unequal lengths")
            for j, value in enumerate(row):
                q = _coerce(value)
                if q:
                    entries[(i, j)] = q
        return cls(len(rows), ncols, entries)

    @classmethod
    def from_row_dicts(cls, row_dicts: Iterable[Mapping], cols: int) -> "RatMatrix":
        entries = {}
        nrows = 0
        for i, row in enumerate(row_dicts):
            nrows = i + 1
            for j, value in row.items():
                q = _coerce(value)
                if q:
                    entries[(i, j)] = q
        m = cls.__new__(cls)
        m.rows = nrows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, {})

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def row_dicts(self) -> list:
        """Per-row {column: value} dicts, built afresh on each call."""
        out = [{} for _ in range(self.rows)]
        for (i, j), value in self.entries.items():
            out[i][j] = value
        return out

    def to_lists(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), value in self.entries.items():
            out[i][j] = value
        return out

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        brows = other.row_dicts()
        entries = {}
        for i, arow in enumerate(self.row_dicts()):
            acc = {}
            for j, av in arow.items():
                for k, bv in brows[j].items():
                    acc[k] = acc.get(k, 0) + av * bv
            for k, v in acc.items():
                if v:
                    entries[(i, k)] = v
        return RatMatrix(self.rows, other.cols, entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


@dataclass(frozen=True)
class EchelonForm:
    """Canonical reduced echelon form of a matrix's row space.

    ``rows`` maps each pivot column, in increasing order, to its reduced row:
    1 at that pivot and 0 at every other pivot column.
    """

    rows: dict

    @property
    def pivot_columns(self) -> tuple:
        return tuple(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _integer_row(row: Mapping) -> tuple:
    """(lcm of the row's denominators, the row scaled by it).

    A :class:`RatMatrix` row with lcm 1 holds only ``int`` values and is
    returned as it is.
    """
    mult = lcm(*(v.denominator for v in row.values()))
    if mult == 1:
        return 1, row
    return mult, {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


def rref(m: RatMatrix) -> EchelonForm:
    """Reduced row echelon form with pivot entries equal to one.

    Each kernel row is divided by its positive pivot entry; entries it
    divides stay ``int``, so a row with pivot entry 1 is kept as it is.
    """
    int_rows = [_integer_row(r)[1] for r in m.row_dicts() if r]
    pivot_rows, pivot_cols = kernels.rref_int(int_rows)
    rows = {}
    for row, pcol in zip(pivot_rows, pivot_cols):
        lead = row[pcol]
        if lead != 1:
            row = {c: _exact_quotient(v, lead) for c, v in row.items()}
        rows[pcol] = row
    return EchelonForm(rows)


def rank(m: RatMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: RatMatrix) -> list:
    """Basis vectors (length ``cols``) of the right null space, one per free
    column in increasing column order."""
    rows = rref(m).rows
    basis = []
    for free in range(m.cols):
        if free in rows:
            continue
        vec = [0] * m.cols
        vec[free] = 1
        for pcol, row in rows.items():
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


def determinant(m: RatMatrix):
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    entries = m.entries
    denom = 1
    if not set(map(type, entries.values())) <= {int}:
        # scale each row to integers; the determinant scales by the product
        entries = {}
        for i, row in enumerate(m.row_dicts()):
            mult, ints = _integer_row(row)
            denom *= mult
            for c, v in ints.items():
                entries[(i, c)] = v
    dense = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        dense[i][j] = v
    if not all(map(any, dense)):
        return 0
    return _exact_quotient(kernels.det_bareiss(dense), denom)


def reduce_mod_echelon(ech: EchelonForm, vec: Mapping) -> dict:
    """Remainder of a coefficient vector modulo the echelon row space.

    The result is supported on non-pivot columns only; it vanishes exactly
    when the vector lies in the row space.
    """
    rows = ech.rows
    acc = {}
    # One pass over the support suffices.  Each reduced row is 1 at its own
    # pivot and 0 at every other pivot column, so subtracting v_p * row_p
    # leaves every other pivot's coefficient as it was in ``vec``: the
    # sequential reduction subtracts exactly vec_p * row_p for each pivot p,
    # in any order.  The pivot's own entry cancels and is skipped.
    for c, v in vec.items():
        row = rows.get(c)
        if row is None:
            acc[c] = acc.get(c, 0) + v
        elif v:
            for k, w in row.items():
                if k != c:
                    acc[k] = acc.get(k, 0) - v * w
    return {c: v for c, v in acc.items() if v}
