"""Exact linear algebra over the rationals.

A matrix is its rows: an iterable of sparse ``{column: value}`` dicts, the
form slices and multiplication matrices are built in, read by :func:`rref`
and :func:`rank`.  :func:`determinant`, the one dense reader, takes square
dense rows, as :func:`kernels.det_bareiss` does; Gram matrices are built
so, and only a singular one goes to :func:`rank`, as sparse
rows.  :func:`_integer_row` is the one place that turns exact values into
the nonzero integers the kernels of :mod:`lefschetz.kernels` read, so no
rounding can occur anywhere in a verdict path.  The reduced echelon form is
canonical for the row space, which makes ranks, pivot columns, and
standard-monomial choices reproducible across runs.

A value is a Python ``int`` when it is integral and a ``Fraction`` only
where a real denominator appears.  Both are exact: ``int`` and ``Fraction``
are closed under ``+``, ``-`` and ``*`` with each other, an ``int`` equals
and hashes like the integral ``Fraction`` it stands for, and a quotient is
built as ``Fraction(n, d)`` or, when ``d`` divides ``n``, as ``n // d``.
The one inexact operator, ``/`` between two ``int``, which returns a
``float``, is never used.  :func:`_coerce` is the one entry point: every
non-``int`` value a row hands to :func:`_integer_row` passes through it, so
a value reaching a kernel is an ``int`` or was scaled out of a ``Fraction``
whose denominator is above 1.  Arithmetic on two ``Fraction`` values may
still give an integral ``Fraction``, or a zero; both are equally exact, and
are normalized or dropped the next time they enter a kernel.
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
    """(lcm of the row's denominators, the row as nonzero integers).

    Zero entries are dropped and every non-``int`` value passes through
    :func:`_coerce`; a row that then holds a ``Fraction`` is scaled by the
    lcm of its denominators.  A row of nonzero ``int`` values is returned as
    it is, after a type scan, and an ``int`` row holding zeros is filtered
    without :func:`_coerce`.  The row is never modified.
    """
    values = row.values()
    if set(map(type, values)) <= {int}:
        return 1, (row if all(values) else {c: v for c, v in row.items() if v})
    out = {}
    for c, v in row.items():
        v = _coerce(v)
        if v:
            out[c] = v
    if Fraction not in map(type, out.values()):
        return 1, out
    mult = lcm(*(v.denominator for v in out.values()))
    return mult, {c: v.numerator * (mult // v.denominator) for c, v in out.items()}


def rref(rows: Iterable[Mapping]) -> EchelonForm:
    """Reduced row echelon form, with pivot entries equal to one, of the
    sparse ``{column: value}`` rows; zero entries and empty rows are
    allowed, and the rows are never modified.

    Each kernel row is divided by its positive pivot entry; entries it
    divides stay ``int``, so a row with pivot entry 1 is kept as it is.
    """
    pivot_rows, pivot_cols = kernels.rref_int([_integer_row(r)[1] for r in rows])
    out = {}
    for row, pcol in zip(pivot_rows, pivot_cols):
        lead = row[pcol]
        if lead != 1:
            row = {c: _exact_quotient(v, lead) for c, v in row.items()}
        out[pcol] = row
    return EchelonForm(out)


def rank(rows: Iterable[Mapping]) -> int:
    """Rank of the sparse ``{column: value}`` rows, read as :func:`rref`
    reads them: the number of pivots of the integer kernel's forward pass
    (:func:`kernels.rank_int`).  Rows are scaled to integers and eliminated,
    but never back-substituted or divided by their pivot entries."""
    return kernels.rank_int([_integer_row(r)[1] for r in rows])


def determinant(rows):
    """Exact determinant of a square matrix given as dense rows.

    This is the one dense reader of the module: ``rows`` is a sequence of
    ``n`` rows of ``n`` values each, the form :func:`kernels.det_bareiss`
    reads, and is never modified.  One pass over the entries reads their
    types.  Rows of ``int`` go to the kernel as they are (it works on a
    copy).  Otherwise each row is read through :func:`_integer_row`, and the
    determinant is divided by the product of the lcms it scaled the rows
    by.  The result is an ``int`` or a ``Fraction``, never a ``float``.
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
        mult, row = _integer_row(dict(enumerate(row)))
        denom *= mult
        dense.append([row.get(j, 0) for j in range(n)])
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
