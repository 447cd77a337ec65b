"""The slice table that quotients of one process share, and the clearing
of every process-wide table between tests."""

import io
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import cli, family, polyring, quotient
from lefschetz.polyring import (
    HomogeneousPoly,
    IdealPresentation,
    ideal_degree_slice,
    monomial_basis,
)
from lefschetz.quotient import GradedQuotient


def typed(echelon):
    """Echelon rows with every value's type, so that an ``int`` and the
    integral ``Fraction`` it stands for differ."""
    return {
        pivot: sorted((c, type(v).__name__, v) for c, v in row.items())
        for pivot, row in echelon.rows.items()
    }


def assert_same_slice(got, fresh):
    assert got.degree == fresh.degree
    assert got.basis == fresh.basis
    assert got.dead == fresh.dead
    assert typed(got.echelon) == typed(fresh.echelon)
    assert got.standard_columns == fresh.standard_columns
    assert got.standard_monomials == fresh.standard_monomials


@pytest.fixture
def built(monkeypatch):
    """The (ideal, degree) of every slice built through a quotient."""
    calls = []
    slice_of = quotient.ideal_degree_slice

    def counting_slice(ideal, degree):
        calls.append((ideal, degree))
        return slice_of(ideal, degree)

    monkeypatch.setattr(quotient, "ideal_degree_slice", counting_slice)
    return calls


def sweep(argv):
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def without_ms(text):
    return re.sub(r'"ms": [0-9.]+', '"ms": 0', text)


def test_shared_slices_equal_fresh_ones_after_a_sweep(built):
    sweep(["sweep", "--a-max", "5"])
    requested = len(built)
    shared = 0
    for p in family.enumerate_params(5):
        q = GradedQuotient(
            family.build_ideal(p),
            degree_cap=p.a + p.b + p.c,
            socle_degree=p.socle_degree,
        )
        for d in range(p.socle_degree // 2 + 2):
            before = len(built)
            got = q.slice(d)
            shared += len(built) == before
            assert_same_slice(got, ideal_degree_slice(family.build_ideal(p), d))
    # the table answered many of the requests, including some of the sweep's
    assert shared > requested // 4
    assert requested < 1143


def test_sweep_output_does_not_depend_on_the_shared_slices(monkeypatch):
    shared = sweep(["sweep", "--a-max", "5", "--slp"])
    compute = cli._compute_record

    def unshared(params, cfg):
        quotient._SHARED_SLICES.clear()
        return compute(params, cfg)

    monkeypatch.setattr(cli, "_compute_record", unshared)
    alone = sweep(["sweep", "--a-max", "5", "--slp"])
    assert shared[0] == alone[0] == 0
    assert without_ms(shared[1]) == without_ms(alone[1])
    assert len(shared[1].splitlines()) == 200


def test_sweep_builds_each_distinct_slice_once(built):
    """A WLP sweep over a <= 4 asks for degrees 0..min(D//2+1, D) of each
    tuple and builds exactly one slice per distinct list of generators of
    degree at most d, keyed here by their text."""
    keys = set()
    requests = 0
    for p in family.enumerate_params(4):
        gens = family.build_ideal(p).generators
        top = p.socle_degree
        for d in range(min(top // 2 + 1, top) + 1):
            requests += 1
            keys.add((d, tuple(str(g) for g in gens if g.degree <= d)))
    assert sweep(["sweep", "--a-max", "4"])[0] == 0
    assert len(keys) < requests // 2
    assert len(built) == len(keys)


# one or two terms with small coefficients, in three variables
_COEFFS = st.integers(-3, 3).filter(bool)


@st.composite
def polys(draw, degree):
    basis = monomial_basis(3, degree)
    monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=2, unique=True))
    return HomogeneousPoly(3, degree, {m: draw(_COEFFS) for m in monos})


@st.composite
def split_ideals(draw):
    """(low, high_1, high_2, d): generators of degree at most d, and two
    different generators of one degree e > d."""
    d = draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(1, d), min_size=1, max_size=3))
    low = [draw(polys(k)) for k in degrees]
    e = draw(st.integers(d + 1, d + 2))
    high_1 = draw(polys(e))
    high_2 = draw(polys(e).filter(lambda g: g != high_1))
    return low, high_1, high_2, d


def _with_coefficient_changed(g):
    mono, c = next(iter(g.terms.items()))
    terms = dict(g.terms)
    terms[mono] = c + 1 if c != -1 else 2
    return HomogeneousPoly(3, g.degree, terms)


@settings(max_examples=60, deadline=None)
@given(split_ideals(), st.data())
def test_slice_key_reads_exactly_the_low_generators(case, data):
    low, high_1, high_2, d = case
    quotient._SHARED_SLICES.clear()
    built = []
    slice_of = quotient.ideal_degree_slice

    def counting_slice(ideal, degree):
        built.append(degree)
        return slice_of(ideal, degree)

    quotient.ideal_degree_slice = counting_slice
    try:
        ideal_1 = IdealPresentation(3, low + [high_1])
        ideal_2 = IdealPresentation(3, low + [high_2])
        q1 = GradedQuotient(ideal_1, degree_cap=d + 2)
        q2 = GradedQuotient(ideal_2, degree_cap=d + 2)
        # agreeing up to d: one slice, shared
        assert q2.slice(d) is q1.slice(d)
        assert built == [d]
        # from the degree where they differ, each builds its own
        e = high_1.degree
        s1, s2 = q1.slice(e), q2.slice(e)
        assert s1 is not s2
        assert built == [d, e, e]
        assert_same_slice(s1, ideal_degree_slice(ideal_1, e))
        assert_same_slice(s2, ideal_degree_slice(ideal_2, e))
        # one changed coefficient below d: a miss, and the right slice
        k = data.draw(st.integers(0, len(low) - 1))
        changed = list(low)
        changed[k] = _with_coefficient_changed(low[k])
        ideal_3 = IdealPresentation(3, changed + [high_1])
        s3 = GradedQuotient(ideal_3, degree_cap=d + 2).slice(d)
        assert built == [d, e, e, d]
        assert_same_slice(s3, ideal_degree_slice(ideal_3, d))
    finally:
        quotient.ideal_degree_slice = slice_of


def test_slice_table_is_bounded(built):
    for k in range(1, quotient._SHARED_SLICES_MAX + 11):
        ideal = IdealPresentation(3, [HomogeneousPoly.monomial(3, (k, 0, 0))])
        GradedQuotient(ideal, degree_cap=k).slice(k)
    assert len(quotient._SHARED_SLICES) == quotient._SHARED_SLICES_MAX
    # the first ideals were evicted, so their slice is built again
    first = IdealPresentation(3, [HomogeneousPoly.monomial(3, (1, 0, 0))])
    before = len(built)
    GradedQuotient(first, degree_cap=1).slice(1)
    assert len(built) == before + 1


def test_conftest_clears_the_shared_tables():
    assert not quotient._SHARED_SLICES
    assert polyring.multiple_columns.cache_info().currsize == 0
    assert quotient.fixed_candidate.cache_info().currsize == 0
    assert quotient._form_text.cache_info().currsize == 0
