"""Monomials, homogeneous polynomials, and degreewise ideal slices.

Everything lives in a fixed number of variables with exact rational
coefficients; a polynomial built through its constructor stores each one as
an ``int`` when it is integral (see :mod:`lefschetz.exactla`).
Monomials are bare exponent tuples, ordered graded-lexicographically with
earlier variables heaviest, so a degree-d basis lists the pure power of the
first variable first.  An ideal is presented by finitely many homogeneous
generators; its degree-d slice is the echelonized span of all monomial
multiples of the generators landing in degree d.  The multiples of a
monomial generator are unit rows, so the slice keeps them implicit: their
columns are marked dead, run by run (see :func:`column_runs`).  So is the
column of any other row left with one live entry, which is a unit row too
(see :func:`slice_rows`).  Only the remaining rows, restricted to live
columns, are echelonized.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb
from operator import add

from . import exactla
from .exactla import EchelonForm, _coerce
from .record import Record

Monomial = tuple

DEFAULT_NAMES = ("x", "y", "z")


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_str(mono: Monomial, names: tuple = None) -> str:
    if names is None:
        names = DEFAULT_NAMES if len(mono) <= 3 else tuple(
            f"x{i}" for i in range(len(mono))
        )
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> tuple:
    """All degree-``degree`` monomials in ``nvars`` variables, descending
    graded-lexicographic order (earlier variables heavier)."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for tail in monomial_basis(nvars - 1, degree - e):
            out.append((e,) + tail)
    return tuple(out)


class HomogeneousPoly:
    """A homogeneous polynomial: nonzero terms of one common degree.

    The zero polynomial is representable (empty terms) and keeps its declared
    degree so arithmetic stays well typed.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: Mapping):
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            if sum(mono) != degree:
                raise ValueError(
                    f"monomial {mono} has degree {sum(mono)}, expected {degree}"
                )
            q = _coerce(coeff)
            if q:
                clean[mono] = q
        self.nvars = nvars
        self.degree = degree
        self.terms = clean

    @classmethod
    def _clean(cls, nvars: int, degree: int, terms: dict) -> "HomogeneousPoly":
        """Wrap terms that are already nonzero, exact and of this degree."""
        out = cls.__new__(cls)
        out.nvars, out.degree, out.terms = nvars, degree, terms
        return out

    @classmethod
    def from_terms(cls, nvars: int, terms: Mapping) -> "HomogeneousPoly":
        """Infer the degree from the nonzero terms."""
        degrees = {sum(m) for m, c in terms.items() if _coerce(c)}
        if not degrees:
            raise ValueError("cannot infer the degree of the zero polynomial")
        if len(degrees) > 1:
            raise ValueError(f"terms of mixed degrees {sorted(degrees)}")
        return cls(nvars, degrees.pop(), terms)

    @classmethod
    def monomial(cls, nvars: int, expts: Iterable, coeff=1) -> "HomogeneousPoly":
        mono = tuple(expts)
        return cls(nvars, sum(mono), {mono: coeff})

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogeneousPoly":
        return cls(nvars, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "HomogeneousPoly"):
        if self.nvars != other.nvars:
            raise ValueError("different variable counts")
        if self.degree != other.degree:
            raise ValueError(
                f"cannot combine degrees {self.degree} and {other.degree}"
            )

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            w = terms.get(m, 0) + c
            if w:
                terms[m] = w
            else:
                terms.pop(m, None)
        return HomogeneousPoly._clean(self.nvars, self.degree, terms)

    def __neg__(self) -> "HomogeneousPoly":
        terms = {m: -c for m, c in self.terms.items()}
        return HomogeneousPoly._clean(self.nvars, self.degree, terms)

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + (-other)

    def multiply_monomial(self, mono: Monomial) -> "HomogeneousPoly":
        mono = tuple(mono)
        if len(mono) != self.nvars or any(e < 0 for e in mono):
            raise ValueError(f"bad monomial {mono}")
        terms = {mono_mul(m, mono): c for m, c in self.terms.items()}
        return HomogeneousPoly._clean(self.nvars, self.degree + sum(mono), terms)

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if self.nvars != other.nvars:
            raise ValueError("different variable counts")
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = mono_mul(m1, m2)
                w = terms.get(key, 0) + c1 * c2
                if w:
                    terms[key] = w
                else:
                    terms.pop(key, None)
        return HomogeneousPoly._clean(self.nvars, self.degree + other.degree, terms)

    def __pow__(self, exponent: int) -> "HomogeneousPoly":
        if exponent < 0:
            raise ValueError("negative power")
        result = HomogeneousPoly(self.nvars, 0, {(0,) * self.nvars: 1})
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return self.as_text()

    def as_text(self, names: tuple = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            body = mono_str(mono, names)
            if body == "1":
                chunk = str(abs(coeff))
            elif abs(coeff) == 1:
                chunk = body
            else:
                chunk = f"{abs(coeff)}*{body}"
            parts.append(("-" if coeff < 0 else "+", chunk))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    def __repr__(self) -> str:
        return f"HomogeneousPoly({self.as_text()})"


class IdealPresentation(Record):
    """A homogeneous ideal given by finitely many nonzero generators of
    positive degree."""

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators: Iterable):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, HomogeneousPoly):
                raise TypeError("generators must be HomogeneousPoly")
            if g.nvars != nvars:
                raise ValueError("generator variable count mismatch")
            if g.is_zero():
                raise ValueError("zero generator")
            if g.degree < 1:
                raise ValueError("generators must have positive degree")
        Record.__init__(self, nvars, gens)

    def as_text(self, names: tuple = None) -> str:
        return ", ".join(g.as_text(names) for g in self.generators)


class DegreeSlice(Record):
    """Echelonized degree-d slice of an ideal inside the full monomial basis.

    ``dead`` holds the columns of the monomials that lie in the monomial
    part of the ideal, and the columns of the rows that :func:`slice_rows`
    found to be unit rows; each stands for a unit row e_c of the row space
    that is not stored.  ``echelon`` is the reduced echelon form of the
    other rows restricted to the live columns.  ``standard_monomials`` are
    the basis monomials at columns that are neither dead nor pivots; they
    descend to a basis of the degree-d part of the quotient ring.
    """

    __slots__ = (
        "degree",
        "basis",
        "dead",
        "echelon",
        "standard_monomials",
        "standard_columns",
    )

    @property
    def rank(self) -> int:
        return len(self.dead) + self.echelon.rank

    def residue(self, vec: Mapping) -> dict:
        """Remainder of a ``{column: coefficient}`` vector modulo the slice,
        supported on its standard columns; empty exactly when the vector
        lies in the slice.

        The row space is span{e_c : c dead} (+) span{echelon rows}, and the
        echelon rows vanish on dead columns.  So v and v with its dead
        entries dropped differ by an element of the row space, and the
        reduced remainder of the latter, which lives on columns that are
        neither dead nor pivots, is the remainder of v.
        """
        dead = self.dead
        return exactla.reduce_mod_echelon(
            self.echelon, {c: v for c, v in vec.items() if c not in dead}
        )


def column_runs(mono: Monomial, degree: int) -> list:
    """The basis columns of the degree-d multiples of a monomial, as
    disjoint ``range`` runs in increasing order.

    In descending graded-lex order the degree-d monomials with first
    exponent e form one block, after the C(d-e-1+n-1, n-1) monomials with a
    larger first exponent, and inside it the tails are listed as the
    degree-(d-e) basis in n-1 variables.  So the multiples of t are, block by
    block for e >= t_0, the multiples of t's tail.  In two variables the
    monomial with second exponent j sits at column j, and the multiples of
    (a, b) are the single run b..d-a.
    """
    if sum(mono) > degree:
        return []
    if len(mono) == 1:
        return [range(1)]
    out = []
    _runs(mono, degree, 0, out)
    return out


@lru_cache(maxsize=1024)
def multiple_columns(mono: Monomial, degree: int) -> tuple:
    """The basis columns of the degree-d multiples of a monomial, in
    increasing order: the runs of :func:`column_runs`, joined.

    Shared by every slice and multiplication table of a process, so the
    columns of a generator's term are listed once per degree, not once per
    ideal that has the term.  The 1,024 entries hold every pair that
    ``sweep --a-max 7`` (425) or ``sweep --a-max 4 --slp`` (28) asks for,
    and keep a long ad hoc scan from holding every degree.
    Callers only read the result.
    """
    return tuple(chain.from_iterable(column_runs(mono, degree)))


def _runs(mono: Monomial, degree: int, start: int, out: list) -> None:
    """Append the runs of ``mono``, which divides into ``degree``, for the
    basis that starts at column ``start``."""
    if len(mono) == 2:
        a, b = mono
        out.append(range(start + b, start + degree - a + 1))
        return
    n = len(mono)
    tail = mono[1:]
    # the block of first exponent e = degree - rest, left to right
    for rest in range(sum(tail), degree - mono[0] + 1):
        _runs(tail, rest, start + comb(rest + n - 2, n - 1), out)


def slice_rows(ideal: IdealPresentation, degree: int) -> tuple:
    """Dead columns and live rows of the ideal's degree-d Macaulay matrix.

    A generator with a single term contributes no rows: every degree-d
    multiple of it is a unit row, so its columns (see
    :func:`multiple_columns`) are collected in the returned set of dead
    columns instead.  Each multiple of a generator with two or more terms
    becomes a ``{column: coefficient}`` row, its columns read off the
    multiple columns of the generator's terms, with its entries in dead
    columns dropped; rows left empty are skipped.  A row left with a single
    entry is a unit row as well: its column joins the dead ones and is
    deleted from the rows that hold it, found through a column -> rows
    index, and each row this leaves with a single entry is queued in turn,
    until no row has a single entry (the first step of structured Gaussian
    elimination, LaMacchia and Odlyzko, CRYPTO 1990).  So the returned rows
    have two or more entries each, in their original order and with their
    entries in it.
    """
    dead = set()
    wide = []
    for g in ideal.generators:
        if g.degree > degree:
            continue
        if len(g.terms) == 1:
            (t,) = g.terms
            dead.update(multiple_columns(t, degree))
        else:
            wide.append(g.terms)
    rows = []
    for terms in wide:
        # Graded lex is a monomial order, so multiplying by t keeps it: the
        # k-th multiple of t in column order is t times the k-th monomial of
        # the multipliers' basis, and the k-th columns of the generator's
        # terms make up the row of that multiplier.
        coeffs = tuple(terms.values())
        columns = [multiple_columns(t, degree) for t in terms]
        for cols in zip(*columns):
            row = {}
            for col, c in zip(cols, coeffs):
                if col not in dead:
                    row[col] = c
            if row:
                rows.append(row)
    # A row left with one live entry c is a nonzero multiple of e_c, so e_c
    # lies in the row space just as a monomial generator's unit rows do: c
    # joins the dead columns and the row is dropped.  Dropping c from the
    # other rows changes each by a multiple of e_c, which keeps the row
    # space, and may leave another row with one entry, which is queued.
    # A row whose entries only die stays at one entry or none, so the dead
    # set reached is the same in any order.
    holders = {}
    for i, row in enumerate(rows):
        for col in row:
            holders.setdefault(col, []).append(i)
    queue = [i for i, row in enumerate(rows) if len(row) == 1]
    while queue:
        row = rows[queue.pop()]
        if not row:
            continue  # its entry died after it was queued
        (col,) = row
        dead.add(col)
        for i in holders[col]:
            other = rows[i]
            del other[col]
            if len(other) == 1:
                queue.append(i)
    return dead, [row for row in rows if row]


def ideal_degree_slice(ideal: IdealPresentation, degree: int) -> DegreeSlice:
    """Slice of the ideal in the given degree; rank 0 when no generator
    divides into it.

    Monomial generators and rows with a single live entry only mark dead
    columns (see :func:`slice_rows`), and no unit row is stored for them:
    the slice keeps the set ``dead`` and the rref of the other rows
    restricted to live columns.  Its rank is ``len(dead)`` plus the echelon
    rank, and :meth:`DegreeSlice.residue` reduces a vector modulo the whole
    slice.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    basis = monomial_basis(ideal.nvars, degree)
    dead, rows = slice_rows(ideal, degree)
    # Every e_c with c dead lies in the row space (see slice_rows), and each
    # row differs from its restriction to live columns by a combination of
    # them, so the row space is span{e_c : c dead} (+) span{restricted rows}.
    # The dead unit rows and the rows of ``echelon``, which vanish on dead
    # columns, are together reduced and echelon, and the reduced echelon
    # form is unique: the full matrix has exactly these rows, its pivots
    # are the dead columns and the pivots of ``echelon``, and its standard
    # monomials are the ones kept here.
    ech = exactla.rref(rows) if rows else EchelonForm({})
    pivots = ech.rows
    dead = frozenset(dead)
    standard_cols = tuple(
        i for i in range(len(basis)) if i not in dead and i not in pivots
    )
    standard = tuple(basis[i] for i in standard_cols)
    return DegreeSlice(degree, basis, dead, ech, standard, standard_cols)


def _skip_spaces(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_int(text: str, pos: int) -> tuple:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise PolyParseError("expected an integer", start)
    return int(text[start:pos]), pos


def parse_poly(
    text: str, nvars: int = 3, names: tuple = None
) -> HomogeneousPoly:
    """Parse ``c*x^i*y^j*z^k`` terms joined by + or -.

    Coefficients may be integers or integer ratios like ``3/2``; a bare
    variable means exponent one; a bare number is a constant term.  Raises
    :class:`PolyParseError` with the offending position on malformed input.
    """
    if names is None:
        names = DEFAULT_NAMES[:nvars]
    var_index = {name: i for i, name in enumerate(names)}
    terms = {}
    pos = _skip_spaces(text, 0)
    if pos >= len(text):
        raise PolyParseError("empty polynomial", pos)
    first = True
    while pos < len(text):
        sign = 1
        pos = _skip_spaces(text, pos)
        if pos < len(text) and text[pos] in "+-−":
            if text[pos] != "+":
                sign = -1
            pos = _skip_spaces(text, pos + 1)
        elif not first:
            raise PolyParseError(f"expected + or - before {text[pos]!r}", pos)
        first = False
        coeff = sign
        expts = [0] * nvars
        saw_factor = False
        while True:
            pos = _skip_spaces(text, pos)
            if pos < len(text) and text[pos].isdigit():
                num, pos = _parse_int(text, pos)
                pos = _skip_spaces(text, pos)
                if pos < len(text) and text[pos] == "/":
                    den, pos = _parse_int(text, _skip_spaces(text, pos + 1))
                    if den == 0:
                        raise PolyParseError("zero denominator", pos - 1)
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                saw_factor = True
            elif pos < len(text) and text[pos].isalpha():
                start = pos
                while pos < len(text) and (
                    text[pos].isalnum() or text[pos] == "_"
                ):
                    pos += 1
                name = text[start:pos]
                if name not in var_index:
                    raise PolyParseError(f"unknown variable {name!r}", start)
                e = 1
                pos = _skip_spaces(text, pos)
                if pos < len(text) and text[pos] == "^":
                    e, pos = _parse_int(text, _skip_spaces(text, pos + 1))
                expts[var_index[name]] += e
                saw_factor = True
            else:
                raise PolyParseError("expected a coefficient or variable", pos)
            pos = _skip_spaces(text, pos)
            if pos < len(text) and text[pos] == "*":
                pos += 1
                continue
            break
        if not saw_factor:
            raise PolyParseError("empty term", pos)
        key = tuple(expts)
        terms[key] = terms.get(key, 0) + coeff
        pos = _skip_spaces(text, pos)
    nonzero = {m: c for m, c in terms.items() if c}
    if not nonzero:
        raise PolyParseError("polynomial cancels to zero", len(text) - 1)
    return HomogeneousPoly.from_terms(nvars, nonzero)


def parse_ideal(
    text: str, nvars: int = 3, names: tuple = None
) -> IdealPresentation:
    """Parse a comma-separated generator list."""
    chunks = text.split(",")
    gens = []
    offset = 0
    for chunk in chunks:
        if not chunk.strip():
            raise PolyParseError("empty generator", offset)
        try:
            gens.append(parse_poly(chunk, nvars, names))
        except PolyParseError as err:
            raise PolyParseError(
                str(err).rsplit(" (at position", 1)[0], offset + err.position
            ) from None
        offset += len(chunk) + 1
    return IdealPresentation(nvars, gens)
