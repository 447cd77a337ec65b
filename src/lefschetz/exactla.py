"""Exact linear algebra over the rationals.

A :class:`RatMatrix` is a sequence of sparse rows, one ``{column: value}``
dict of nonzero exact rationals per row; echelonization and rank read it.
:func:`determinant` is the one dense reader: it takes a square matrix as
dense rows, the form :func:`kernels.det_bareiss` reads.  All three clear
denominators row by row and hand integer rows to :mod:`lefschetz.kernels`,
so no rounding can occur anywhere in a verdict path.  The reduced echelon
form is canonical for the row space, which makes ranks, pivot columns, and
standard-monomial choices reproducible across runs.

A value is a Python ``int`` when it is integral and a ``Fraction`` only
where a real denominator appears.  Both are exact: ``int`` and ``Fraction``
are closed under ``+``, ``-`` and ``*`` with each other, an ``int`` equals
and hashes like the integral ``Fraction`` it stands for, and a quotient is
built as ``Fraction(n, d)`` or, when ``d`` divides ``n``, as ``n // d``.
The one inexact operator, ``/`` between two ``int``, which returns a
``float``, is never used.  :func:`_coerce` is the one entry point: every
value the :class:`RatMatrix` constructor stores, or :func:`determinant`
reads from a matrix that is not all ``int``, passes through it unless it
is already an ``int``, so a row either is all ``int`` or holds a
``Fraction`` whose denominator is above 1.
Arithmetic on two ``Fraction`` values may still give an integral
``Fraction``; it is equally exact and is normalized the next time it
enters a matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from math import lcm

from . import kernels
from .record import Record


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

    ``rows`` holds one ``{column: value}`` dict per row, empty rows included,
    so the shape is ``len(rows)`` by ``cols``.  Every value is nonzero and is
    an ``int`` or a ``Fraction`` with a denominator above 1 (see
    :func:`_coerce`).
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: Iterable[Mapping], cols: int):
        if cols < 0:
            raise ValueError("column count must be nonnegative")
        cleaned = []
        for i, row in enumerate(rows):
            out = {}
            for j, value in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"row {i} has column {j} outside 0..{cols - 1}")
                if type(value) is not int:
                    value = _coerce(value)
                if value:
                    out[j] = value
            cleaned.append(out)
        self.rows = tuple(cleaned)
        self.cols = cols

    @classmethod
    def from_rows(cls, data: Iterable[Iterable]) -> "RatMatrix":
        """Build from dense row lists; all rows must have equal length."""
        rows = [list(r) for r in data]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("rows have unequal lengths")
        return cls([dict(enumerate(row)) for row in rows], ncols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([{i: 1} for i in range(n)], n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        if rows < 0:
            raise ValueError("row count must be nonnegative")
        return cls([{}] * rows, cols)

    def to_lists(self) -> list:
        out = []
        for row in self.rows:
            line = [0] * self.cols
            for j, value in row.items():
                line[j] = value
            out.append(line)
        return out

    def transpose(self) -> "RatMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.rows):
            for j, value in row.items():
                out[j][i] = value
        return RatMatrix(out, len(self.rows))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != len(other.rows):
            raise ValueError(
                f"cannot multiply {len(self.rows)}x{self.cols} by "
                f"{len(other.rows)}x{other.cols}"
            )
        out = []
        for arow in self.rows:
            acc = {}
            for j, av in arow.items():
                for k, bv in other.rows[j].items():
                    acc[k] = acc.get(k, 0) + av * bv
            out.append(acc)
        return RatMatrix(out, other.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.cols, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self) -> str:
        nonzero = sum(map(len, self.rows))
        return f"RatMatrix({len(self.rows)}x{self.cols}, {nonzero} nonzero)"


class EchelonForm(Record):
    """Canonical reduced echelon form of a matrix's row space.

    ``rows`` maps each pivot column, in increasing order, to its reduced row:
    1 at that pivot and 0 at every other pivot column.
    """

    __slots__ = ("rows",)

    @property
    def pivot_columns(self) -> tuple:
        return tuple(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _integer_row(row: Mapping) -> tuple:
    """(lcm of the row's denominators, the row scaled by it).

    A row of ``int`` values is returned as it is.  Any other
    :class:`RatMatrix` row holds a ``Fraction`` with a denominator above 1,
    so its lcm is above 1 too.
    """
    if Fraction not in map(type, row.values()):
        return 1, row
    mult = lcm(*(v.denominator for v in row.values()))
    return mult, {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


def rref(m: RatMatrix) -> EchelonForm:
    """Reduced row echelon form with pivot entries equal to one.

    Each kernel row is divided by its positive pivot entry; entries it
    divides stay ``int``, so a row with pivot entry 1 is kept as it is.
    """
    int_rows = [_integer_row(r)[1] for r in m.rows if r]
    pivot_rows, pivot_cols = kernels.rref_int(int_rows)
    rows = {}
    for row, pcol in zip(pivot_rows, pivot_cols):
        lead = row[pcol]
        if lead != 1:
            row = {c: _exact_quotient(v, lead) for c, v in row.items()}
        rows[pcol] = row
    return EchelonForm(rows)


def rank(m: RatMatrix) -> int:
    """The number of pivots of the integer kernel's forward pass
    (:func:`kernels.rank_int`): rows are scaled to integers and eliminated,
    but never back-substituted or divided by their pivot entries."""
    int_rows = [_integer_row(r)[1] for r in m.rows if r]
    return kernels.rank_int(int_rows)


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


def determinant(rows):
    """Exact determinant of a square matrix given as dense rows.

    This is the one dense reader of the module: ``rows`` is a sequence of
    ``n`` rows of ``n`` values each, the form :func:`kernels.det_bareiss`
    reads, and is never modified.  One pass over the entries reads their
    types.  Rows of ``int`` go to the kernel as they are (it works on a
    copy).  Otherwise every value passes through :func:`_coerce`, and a row
    that then holds a ``Fraction`` is scaled to integers by its
    denominators' lcm; the determinant is divided by the product of those
    lcms.  The result is an ``int`` or a ``Fraction``, never a ``float``.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotSquareError(f"row {i} has {len(row)} entries, not {n}")
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return kernels.det_bareiss(rows)
    denom = 1
    dense = []
    for row in rows:
        row = [_coerce(v) for v in row]
        if Fraction in map(type, row):
            mult = lcm(*(v.denominator for v in row))
            denom *= mult
            row = [v.numerator * (mult // v.denominator) for v in row]
        dense.append(row)
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
