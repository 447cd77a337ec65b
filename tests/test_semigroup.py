import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz.semigroup import (
    AperySet,
    NotInSemigroupError,
    NumericalSemigroup,
)
from value_oracles import length_sets


def test_frozen_5678():
    s = NumericalSemigroup([5, 6, 7, 8])
    assert s.multiplicity == 5
    ap = s.apery()
    assert ap == AperySet(5, (0, 6, 7, 8, 14), (0, 1, 1, 1, 2))
    assert s.order(14) == 2
    assert s.is_m_pure_symmetric() == (True, [])
    assert s.order_histogram() == (1, 3, 1)


def test_frozen_4567_fails_both_ways():
    s = NumericalSemigroup([4, 5, 6, 7])
    assert s.apery().elements == (0, 5, 6, 7)
    ok, failures = s.is_m_pure_symmetric()
    assert not ok
    assert failures == [(2, "sum"), (2, "order"), (3, "sum"), (3, "order")]


def test_frozen_two_generators():
    s = NumericalSemigroup([2, 3])
    assert s.apery() == AperySet(2, (0, 3), (0, 1))
    assert s.is_m_pure_symmetric() == (True, [])
    assert 1 not in s and 5 in s
    assert s.order(6) == 3
    assert not s.membership(-2)


def test_order_of_non_member_raises():
    s = NumericalSemigroup([2, 3])
    with pytest.raises(NotInSemigroupError):
        s.order(1)
    assert s.order(0) == 0


def test_generator_validation():
    with pytest.raises(ValueError):
        NumericalSemigroup([5])
    with pytest.raises(ValueError):
        NumericalSemigroup([4, 6])  # gcd 2
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup([7, 7])
    assert NumericalSemigroup([7, 5, 5, 6, 8]).generators == (5, 6, 7, 8)


generator_sets = st.lists(
    st.integers(min_value=2, max_value=30), min_size=2, max_size=5
).filter(lambda gens: len(set(gens)) >= 2)


@given(generator_sets)
@settings(max_examples=40, deadline=None)
def test_against_exhaustive_closure(gens):
    from math import gcd

    assume(gcd(*gens) == 1)
    s = NumericalSemigroup(gens)
    m = s.multiplicity
    bound = m * max(gens)
    sets = length_sets(sorted(set(gens)), bound)

    for t in range(min(bound, 80) + 1):
        assert s.membership(t) == bool(sets[t])

    least = {}
    for t in range(bound + 1):
        if sets[t]:
            r = t % m
            if r not in least:
                least[r] = t
    assert len(least) == m
    ap = s.apery()
    assert ap.elements == tuple(sorted(least.values()))
    assert len(ap.elements) == m
    for e in ap.elements:
        assert s.order(e) == max(sets[e])

    ok, failures = s.is_m_pure_symmetric()
    assert ok == (not failures)
    if ok:
        hist = s.order_histogram()
        assert hist == tuple(reversed(hist))


@given(generator_sets, st.integers(0, 120), st.integers(0, 120))
@settings(max_examples=60, deadline=None)
def test_order_is_superadditive(gens, x, y):
    from math import gcd

    assume(gcd(*gens) == 1)
    s = NumericalSemigroup(gens)
    assume(x in s and y in s)
    assert s.order(x + y) >= s.order(x) + s.order(y)


@given(st.integers(2, 12), st.integers(3, 40))
@settings(max_examples=60)
def test_two_generator_semigroups_are_always_pure(g1, g2):
    from math import gcd

    assume(g1 < g2 and gcd(g1, g2) == 1)
    s = NumericalSemigroup([g1, g2])
    ap = s.apery()
    assert ap.elements == tuple(i * g2 for i in range(g1))
    assert s.is_m_pure_symmetric() == (True, [])
    assert s.order_histogram() == (1,) * g1
