import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import exactla
from lefschetz.polyring import (
    HomogeneousPoly,
    IdealPresentation,
    PolyParseError,
    column_runs,
    ideal_degree_slice,
    mono_str,
    monomial_basis,
    multiple_columns,
    parse_ideal,
    parse_poly,
    slice_rows,
)
from lefschetz.quotient import LinearForm
from package_oracles import ZeroCoefficientError, eliminate_linear_form

YZ = ("y", "z")


def _dim(nvars, degree):
    return math.comb(degree + nvars - 1, nvars - 1)


def test_monomial_basis_descending_order():
    assert monomial_basis(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    assert monomial_basis(2, 5)[0] == (5, 0)
    assert monomial_basis(2, 5)[-1] == (0, 5)
    assert monomial_basis(1, 4) == ((4,),)
    assert monomial_basis(3, 0) == ((0, 0, 0),)


@given(st.integers(1, 4), st.integers(0, 8))
def test_monomial_basis_count_is_binomial(nvars, degree):
    basis = monomial_basis(nvars, degree)
    assert len(basis) == _dim(nvars, degree)
    assert len(set(basis)) == len(basis)
    assert all(sum(m) == degree for m in basis)
    assert list(basis) == sorted(basis, reverse=True)


def test_mono_str():
    assert mono_str((2, 1, 0)) == "x^2*y"
    assert mono_str((0, 0, 0)) == "1"
    assert mono_str((0, 1, 3), ("u", "v", "w")) == "v*w^3"


def test_poly_arithmetic_and_cancellation():
    x = HomogeneousPoly.monomial(3, (1, 0, 0))
    y = HomogeneousPoly.monomial(3, (0, 1, 0))
    square = (x + y) ** 2
    assert square.terms == {
        (2, 0, 0): Fraction(1),
        (1, 1, 0): Fraction(2),
        (0, 2, 0): Fraction(1),
    }
    assert (square - square).is_zero()
    assert (x - x).is_zero() and (x - x).degree == 1


def test_poly_degree_mismatch_rejected():
    x = HomogeneousPoly.monomial(3, (1, 0, 0))
    x2 = HomogeneousPoly.monomial(3, (2, 0, 0))
    with pytest.raises(ValueError):
        x + x2
    with pytest.raises(ValueError):
        HomogeneousPoly.from_terms(3, {(1, 0, 0): 1, (2, 0, 0): 1})
    with pytest.raises(ValueError):
        HomogeneousPoly.from_terms(3, {(1, 0, 0): 0})
    with pytest.raises(ValueError):
        HomogeneousPoly(3, 2, {(1, 0, 0): 1})


def test_multiply_monomial_shifts_degree():
    p = parse_poly("y^2 - x*z")
    shifted = p.multiply_monomial((1, 0, 0))
    assert shifted.degree == 3
    assert shifted == parse_poly("x*y^2 - x^2*z")


def test_degree_slice_frozen_example():
    # (x^2, y^2 - x*z, z^2, x*y, y*z): degree 2 leaves only y^2 standing
    ideal = parse_ideal("x^2, y^2 - x*z, z^2, x*y, y*z")
    s2 = ideal_degree_slice(ideal, 2)
    assert s2.rank == 5
    assert tuple(sorted(s2.dead.union(s2.echelon.rows))) == (0, 1, 2, 4, 5)
    # the slice is cached per degree, so its dead set must not be mutable
    assert isinstance(s2.dead, frozenset)
    assert s2.standard_monomials == ((0, 2, 0),)
    s1 = ideal_degree_slice(ideal, 1)
    assert s1.rank == 0
    assert s1.standard_monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_degree_slice_of_principal_ideal():
    ideal = parse_ideal("x^2", nvars=3)
    for d in range(2, 6):
        # multiples of x^2 in degree d are x^2 * (degree d-2 monomials)
        assert ideal_degree_slice(ideal, d).rank == _dim(3, d - 2)


def test_adding_generators_never_shrinks_slices():
    rng = random.Random(7)
    basis3 = monomial_basis(3, 3)
    for _ in range(20):
        gens = [
            HomogeneousPoly(
                3,
                3,
                {
                    m: rng.randint(-3, 3)
                    for m in rng.sample(basis3, rng.randint(1, 4))
                },
            )
            for _ in range(3)
        ]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        smaller = IdealPresentation(3, gens[:1])
        larger = IdealPresentation(3, gens)
        for d in range(3, 7):
            assert (
                ideal_degree_slice(larger, d).rank
                >= ideal_degree_slice(smaller, d).rank
            )


def test_eliminate_principal():
    ideal = parse_ideal("x", nvars=3)
    reduced = eliminate_linear_form(ideal, parse_poly("x - y - z"), 0)
    assert reduced.nvars == 2
    assert reduced.generators == (parse_poly("y + z", 2, YZ),)


def test_eliminate_family_presentation():
    # (x^5, y^4 - x^2*z^2, z^3, x^3*y^2, y^2*z) with x = y + z substituted
    ideal = parse_ideal(
        "x^5, y^4 - x^2*z^2, z^3, x^3*y^2, y^2*z"
    )
    reduced = eliminate_linear_form(ideal, parse_poly("x - y - z"), 0)
    u = parse_poly("y + z", 2, YZ)
    z2 = parse_poly("z^2", 2, YZ)
    y2 = parse_poly("y^2", 2, YZ)
    expected = (
        u ** 5,
        parse_poly("y^4", 2, YZ) - (u ** 2) * z2,
        parse_poly("z^3", 2, YZ),
        (u ** 3) * y2,
        parse_poly("y^2*z", 2, YZ),
    )
    assert reduced.generators == expected
    # a generator without the eliminated variable passes through unchanged
    assert reduced.generators[2] == parse_poly("z^3", 2, YZ)


def test_eliminate_requires_the_variable():
    ideal = parse_ideal("x^2", nvars=3)
    with pytest.raises(ZeroCoefficientError):
        eliminate_linear_form(ideal, parse_poly("y + z"), 0)
    with pytest.raises(ValueError):
        eliminate_linear_form(ideal, parse_poly("x^2"), 0)


def test_eliminate_divides_exactly():
    # x = -(y + z)/3, so x^2 = (y^2 + 2yz + z^2)/9; an int / int division
    # would put a float approximation of -1/3 into the substitution
    ideal = parse_ideal("x^2, y^2, z^2")
    reduced = eliminate_linear_form(ideal, LinearForm((3, 1, 1)), 0)
    first = reduced.generators[0].terms
    assert first == {
        (2, 0): Fraction(1, 9),
        (1, 1): Fraction(2, 9),
        (0, 2): Fraction(1, 9),
    }
    assert all(type(c) is Fraction for c in first.values())


def test_eliminate_matches_adding_the_form():
    """dim K[y,z]/J in each degree equals dim R/(I + (form)) there."""
    rng = random.Random(19)
    form = parse_poly("x - y - z")
    for _ in range(15):
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            basis = monomial_basis(3, deg)
            terms = {
                m: rng.randint(-2, 2)
                for m in rng.sample(basis, rng.randint(1, len(basis)))
            }
            if any(terms.values()):
                gens.append(HomogeneousPoly(3, deg, terms))
        if not gens:
            continue
        ideal = IdealPresentation(3, gens)
        reduced = eliminate_linear_form(ideal, form, 0)
        extended = IdealPresentation(3, gens + [form])
        for d in range(0, 6):
            lhs = _dim(2, d) - ideal_degree_slice(reduced, d).rank
            rhs = _dim(3, d) - ideal_degree_slice(extended, d).rank
            assert lhs == rhs


def test_parse_poly_basics():
    p = parse_poly("2*x^2 - 3/2*y*z + z^2")
    assert p.terms == {
        (2, 0, 0): Fraction(2),
        (0, 1, 1): Fraction(-3, 2),
        (0, 0, 2): Fraction(1),
    }
    assert parse_poly("x*x") == parse_poly("x^2")
    assert parse_poly("y^2-x*z") == parse_poly("y^2 - x*z")


def test_parse_poly_error_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + w")
    assert err.value.position == 4
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + ")
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("x - x")  # cancels to zero
    with pytest.raises(ValueError):
        parse_poly("x^2 + y")  # mixed degrees


def test_parse_ideal_positions_are_global():
    ideal = parse_ideal("x^2, y^2 - x*z")
    assert len(ideal.generators) == 2
    with pytest.raises(PolyParseError) as err:
        parse_ideal("x^2, y^2 - w")
    assert err.value.position == 11
    with pytest.raises(PolyParseError):
        parse_ideal("x^2,, z")


def test_ideal_validation():
    with pytest.raises(ValueError):
        IdealPresentation(3, [HomogeneousPoly.zero(3, 2)])
    with pytest.raises(ValueError):
        IdealPresentation(3, [HomogeneousPoly(3, 0, {(0, 0, 0): 1})])
    with pytest.raises(TypeError):
        IdealPresentation(3, ["x^2"])


@st.composite
def homogeneous_polys(draw):
    degree = draw(st.integers(0, 4))
    basis = monomial_basis(3, degree)
    picked = draw(
        st.lists(
            st.sampled_from(basis), min_size=1, max_size=4, unique=True
        )
    )
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
                bool
            ),
            min_size=len(picked),
            max_size=len(picked),
        )
    )
    return HomogeneousPoly(3, degree, dict(zip(picked, coeffs)))


@given(homogeneous_polys())
@settings(max_examples=100)
def test_parse_round_trips_printed_form(p):
    assert parse_poly(p.as_text()) == p


@given(homogeneous_polys(), homogeneous_polys())
@settings(max_examples=60)
def test_product_degree_and_ring_axioms(p, q):
    prod = p * q
    assert prod.degree == p.degree + q.degree
    assert prod == q * p
    assert p * (q + q) == prod + prod


def _generic_slice_echelon(ideal, degree):
    """rref over every generator-multiple row, dead columns kept."""
    basis = monomial_basis(ideal.nvars, degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in ideal.generators:
        for m in monomial_basis(ideal.nvars, degree - g.degree):
            rows.append(
                {index[t]: c for t, c in g.multiply_monomial(m).terms.items()}
            )
    return exactla.rref(rows)


_COEFFS = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)


@st.composite
def slice_ideals(draw):
    """Ideals in 2 or 3 variables mixing (scaled) monomial generators with
    generators of two or three terms, sometimes repeating a generator."""
    nvars = draw(st.sampled_from((2, 3)))
    shape = draw(st.sampled_from(("mixed", "monomials_only", "no_monomials")))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        basis = monomial_basis(nvars, degree)
        if shape == "monomials_only":
            nterms = 1
        elif shape == "no_monomials":
            nterms = draw(st.integers(2, 3))
        else:
            nterms = draw(st.integers(1, 3))
        nterms = min(nterms, len(basis))
        monos = draw(
            st.lists(
                st.sampled_from(basis),
                min_size=nterms,
                max_size=nterms,
                unique=True,
            )
        )
        coeffs = draw(st.lists(_COEFFS, min_size=nterms, max_size=nterms))
        gens.append(HomogeneousPoly(nvars, degree, dict(zip(monos, coeffs))))
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return IdealPresentation(nvars, gens)


@given(slice_ideals(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_degree_slice_matches_generic_rref(ideal, rng):
    for degree in range(7):
        got = ideal_degree_slice(ideal, degree)
        want = _generic_slice_echelon(ideal, degree)
        # the unit rows at dead columns and the live echelon rows, keyed by
        # pivot in increasing order, are the rref of the full matrix
        assert not got.dead.intersection(got.echelon.rows)
        full = {c: {c: 1} for c in got.dead}
        full.update(got.echelon.rows)
        assert list(sorted(full.items())) == list(want.rows.items())
        assert got.rank == want.rank
        pivots = set(want.pivot_columns)
        assert got.standard_columns == tuple(
            i for i in range(len(got.basis)) if i not in pivots
        )
        # residues agree with the full echelon, also on vectors that hit
        # dead columns
        ncols = len(got.basis)
        dead = sorted(got.dead)
        for _ in range(5):
            support = rng.sample(range(ncols), rng.randint(0, ncols))
            if dead:
                support.append(rng.choice(dead))
            vec = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for c in support}
            assert got.residue(vec) == exactla.reduce_mod_echelon(want, vec)


def test_unit_rows_join_the_dead_columns_round_by_round():
    # Degree 3, basis x^3 x^2y x^2z xy^2 xyz xz^2 y^3 y^2z yz^2 z^3 (columns
    # 0-9).  x^2 kills 0, 1, 2.  Then x*(xy - y^2) is left with xy^2 (3);
    # with 3 dead, y*(xy - y^2) and x*(y^2 - z^2) are left with y^3 (6) and
    # xz^2 (5); with 6 dead, y*(y^2 - z^2) is left with yz^2 (8).  Only
    # z*(xy - y^2) and z*(y^2 - z^2) keep two entries.
    ideal = parse_ideal("x^2, x*y - y^2, y^2 - z^2")
    dead, rows = slice_rows(ideal, 3)
    assert dead == {0, 1, 2, 3, 5, 6, 8}
    assert rows == [{4: 1, 7: -1}, {7: 1, 9: -1}]
    got = ideal_degree_slice(ideal, 3)
    assert got.dead == {0, 1, 2, 3, 5, 6, 8}
    assert sorted(got.echelon.rows) == [4, 7]
    want = _generic_slice_echelon(ideal, 3)
    assert got.rank == want.rank == 9
    basis = monomial_basis(3, 3)
    assert got.standard_monomials == tuple(
        m for i, m in enumerate(basis) if i not in want.rows
    ) == ((0, 0, 3),)
    full = {c: {c: 1} for c in got.dead}
    full.update(got.echelon.rows)
    assert sorted(full.items()) == list(want.rows.items())


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
            st.integers(0, 12),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_column_runs_match_brute_force(case):
    mono, degree = case
    basis = monomial_basis(len(mono), degree)
    index = {m: i for i, m in enumerate(basis)}
    runs = column_runs(mono, degree)
    got = [c for run in runs for c in run]
    assert all(len(run) for run in runs)
    assert got == sorted(set(got))  # disjoint, in increasing order
    assert set(got) == {
        index[m] for m in basis if all(a <= b for a, b in zip(mono, m))
    }
    assert multiple_columns(mono, degree) == tuple(got)

