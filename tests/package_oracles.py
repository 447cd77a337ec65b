"""Second routes to values the package computes another way.

Colon-ideal slice dimensions, residue membership after a linear form's
zero locus is substituted, kernel vectors, residue coordinates and the
socle functional read off slice D.  They are built on the package, and
only tests call them: acceptance 2 checks I = J : y^beta with
:func:`colon_slice_dim`, and the residue test of acceptance 8 uses
:func:`eliminate_linear_form` and :func:`residue_membership`.

They are kept apart from ``value_oracles.py``, which shares no code with
the package and which ``perfbench/workloads.py`` loads into the measuring
process.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from lefschetz import exactla
from lefschetz.exactla import rref
from lefschetz.polyring import (
    HomogeneousPoly,
    IdealPresentation,
    _basis_index,
    ideal_degree_slice,
    monomial_basis,
)
from lefschetz.quotient import GradedQuotient, _multiply_into


class ZeroCoefficientError(ValueError):
    """The linear form does not involve the variable being eliminated."""


def eliminate_linear_form(
    ideal: IdealPresentation, form: HomogeneousPoly, eliminated_var: int
) -> IdealPresentation:
    """Substitute the linear form's zero locus, dropping one variable.

    Solves ``form = 0`` for the eliminated variable and substitutes into each
    generator, producing a presentation in one fewer variable.  Generators
    that collapse to zero are dropped.  Accepts anything with a ``to_poly``
    method in place of a polynomial.
    """
    if hasattr(form, "to_poly"):
        form = form.to_poly()
    if form.nvars != ideal.nvars:
        raise ValueError("form variable count mismatch")
    if form.degree != 1:
        raise ValueError("form must be linear")
    if not 0 <= eliminated_var < ideal.nvars:
        raise ValueError("variable index out of range")
    unit = tuple(
        1 if i == eliminated_var else 0 for i in range(ideal.nvars)
    )
    lead = form.terms.get(unit)
    if not lead:
        raise ZeroCoefficientError(
            f"form has zero coefficient on variable {eliminated_var}"
        )
    nv = ideal.nvars - 1
    replacement_terms = {}
    for mono, coeff in form.terms.items():
        if mono == unit:
            continue
        var = mono.index(1)
        reduced = tuple(
            1 if i == (var if var < eliminated_var else var - 1) else 0
            for i in range(nv)
        )
        # a Fraction, never int / int, which would round to a float
        replacement_terms[reduced] = Fraction(-coeff, lead)
    replacement = HomogeneousPoly(nv, 1, replacement_terms)
    new_gens = []
    for g in ideal.generators:
        image = HomogeneousPoly.zero(nv, g.degree)
        for mono, coeff in g.terms.items():
            rest = mono[:eliminated_var] + mono[eliminated_var + 1 :]
            term = HomogeneousPoly.monomial(nv, rest, coeff)
            image = image + term * replacement ** mono[eliminated_var]
        if not image.is_zero():
            new_gens.append(image)
    return IdealPresentation(nv, new_gens)


def residue_membership(ideal: IdealPresentation, degree: int) -> list:
    """Per-monomial membership flags for a two-variable ideal slice.

    Entry ``i`` reports whether the degree-``degree`` monomial with second
    exponent ``i`` lies in the slice, i.e. whether appending its row to the
    echelon form fails to grow the rank.
    """
    if ideal.nvars != 2:
        raise ValueError("residue membership expects a two-variable ideal")
    sl = ideal_degree_slice(ideal, degree)
    out = []
    for i in range(degree + 1):
        rem = sl.residue({i: 1})
        out.append(not rem)
    return out


def colon_slice_dim(
    q: GradedQuotient, divisor: HomogeneousPoly, degree: int
) -> int:
    """dim of the degree-``degree`` piece of the colon ideal
    (q.ideal : divisor).

    A polynomial of that degree lies in the colon exactly when its
    product with the divisor falls into the ideal, so the answer is the
    kernel dimension of multiply-then-reduce; a degree-zero divisor
    recovers the slice dimension of the ideal itself.  The target slice
    of degree ``degree + divisor.degree`` must lie within the cap.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if divisor.is_zero():
        raise ValueError("divisor must be nonzero")
    if divisor.nvars != q.ideal.nvars:
        raise ValueError("divisor variable count mismatch")
    target = q.slice(degree + divisor.degree)
    size = len(monomial_basis(q.ideal.nvars, degree))
    products = _multiply_into(range(size), degree, divisor, target)
    return size - exactla.rank(products)


def quotient_vector(q: GradedQuotient, poly: HomogeneousPoly) -> dict:
    """Coordinates of a polynomial's residue on the standard monomials
    of its degree, in the quotient ``q``."""
    sl = q.slice(poly.degree)
    index = _basis_index(q.ideal.nvars, poly.degree)
    vec = {index[m]: c for m, c in poly.terms.items()}
    return sl.residue(vec)


def kernel_basis(rows: Iterable[Mapping], cols: int) -> list:
    """Basis vectors (length ``cols``) of the right null space of the
    sparse rows, whose columns lie in ``0..cols-1``, one per free column in
    increasing column order, read off :func:`rref`."""
    pivots = rref(rows).rows
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [0] * cols
        vec[free] = 1
        for pcol, row in pivots.items():
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


def slice_d_functional(q: GradedQuotient) -> list:
    """φ: R_D -> K for a quotient ``q`` with socle degree D and h(D) = 1:
    the coordinate of a degree-D residue on the one standard monomial s of
    slice D, as one value per degree-D basis column: 1 at s, 0 at a dead
    column, whose monomial lies in the ideal, and -row[s] at a pivot
    column.  A reduced row is 1 at its pivot and its other entries sit on
    standard columns, here s alone, so the pivot monomial is congruent to
    -row[s]·s modulo the slice.
    """
    sl = q.slice(q.hilbert_data().socle_degree)
    (s,) = sl.standard_columns
    phi = [0] * len(sl.basis)
    phi[s] = 1
    for pcol, row in sl.echelon.rows.items():
        phi[pcol] = -row.get(s, 0)
    return phi
