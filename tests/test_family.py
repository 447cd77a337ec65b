import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.family import (
    ACOrderError,
    BetaRangeError,
    GammaRangeError,
    GorensteinParams,
    ParameterError,
    SnMatrix,
    _hilbert_terms,
    build_ci,
    build_ideal,
    classify,
    enumerate_params,
    hilbert_vector,
    random_sn,
    sn_alpha,
    sn_det_identity,
    uncovered_params,
    validate,
)
from lefschetz.polyring import parse_ideal
from lefschetz.quotient import GradedQuotient
from value_oracles import (
    ci_hilbert,
    gauss_det,
    laplace_det,
    monomial_quotient_dims,
)


def test_validate_accepts_and_freezes():
    p = validate(8, 7, 6, 3, 2)
    assert p.as_tuple() == (8, 7, 6, 3, 2)
    assert p.socle_degree == 15
    with pytest.raises(AttributeError):
        p.a = 9


@pytest.mark.parametrize(
    "args,exc",
    [
        ((3, 2, 4, 1, 1), ACOrderError),
        ((2, 2, 1, 1, 1), ACOrderError),
        ((4, 3, 3, 3, 1), BetaRangeError),
        ((4, 3, 3, 0, 1), ParameterError),
        ((4, 3, 3, 1, 3), GammaRangeError),
        ((4, 8, 4, 1, 2), GammaRangeError),  # b too large for a twist
        ((0, 3, 3, 1, 1), ParameterError),
        ((4, 3, 3, 1, True), ParameterError),
        ((4.0, 3, 3, 1, 1), ParameterError),
    ],
)
def test_validate_rejects(args, exc):
    with pytest.raises(exc):
        validate(*args)


def test_gamma_error_message_names_the_range():
    with pytest.raises(GammaRangeError, match="1 <= gamma <= 2"):
        validate(4, 3, 3, 1, 3)


@pytest.mark.parametrize(
    "fn,args,exc,message",
    [
        # each input breaks more than one rule; the first check in the
        # order positive, a >= c >= 2, beta range, gamma range reports
        (validate, (3, 3, 3, 0, 9), ParameterError,
         "beta must be a positive integer, got 0"),
        (validate, (0, 3, 1, 0, 0), ParameterError,
         "a must be a positive integer, got 0"),
        (validate, (2, 3, 3, 1, 1), ACOrderError,
         "require a >= c >= 2, got a=2, c=3"),
        (validate, (2, 3, 3, 5, 9), ACOrderError,
         "require a >= c >= 2, got a=2, c=3"),
        (validate, (4, 8, 4, 9, 2), BetaRangeError,
         "require 1 <= beta <= b-1 = 7, got beta=9"),
        (build_ci, (1, 3, 3, True), ParameterError,
         "gamma must be a positive integer, got True"),
        (build_ci, (0, 3, 3, 0), ParameterError,
         "a must be a positive integer, got 0"),
        (build_ci, (2, 3, 3, 9), ACOrderError,
         "require a >= c >= 2, got a=2, c=3"),
        (build_ci, (4, 8, 4, 2), GammaRangeError,
         "require 5 <= gamma <= 3 for (a, b, c) = (4, 8, 4), got gamma=2"),
    ],
)
def test_first_failed_check_names_the_error(fn, args, exc, message):
    with pytest.raises(ParameterError) as err:
        fn(*args)
    assert type(err.value) is exc
    assert str(err.value) == message


def test_build_ci_frozen():
    assert build_ci(2, 2, 2, 1) == parse_ideal("x^2, y^2 - x*z, z^2")
    assert build_ci(5, 5, 5, 4) == parse_ideal("x^5, y^5 - x*z^4, z^5")
    with pytest.raises(GammaRangeError):
        build_ci(3, 3, 3, 3)


def test_build_ideal_frozen():
    ideal = build_ideal(validate(2, 2, 2, 1, 1))
    assert ideal == parse_ideal("x^2, y^2 - x*z, z^2, x*y, y*z")
    ideal = build_ideal(validate(5, 5, 5, 1, 4))
    assert ideal == parse_ideal(
        "x^5, y^5 - x*z^4, z^5, x^4*y^4, y^4*z"
    )


def test_classify_frozen_values():
    report = classify(validate(8, 7, 6, 3, 2))
    assert report.true_flags() == ()
    assert not report.covered
    report = classify(validate(7, 7, 6, 2, 3))
    assert not report.covered
    report = classify(validate(2, 2, 2, 1, 1))
    assert report.true_flags() == (
        "thm37",
        "thm38",
        "cor313a",
        "cor313b",
        "small2",
    )
    report = classify(validate(9, 5, 4, 2, 3))
    assert report.flags() == {
        "thm37": True,
        "thm38": False,
        "cor313a": True,
        "cor313b": True,
        "small2": False,
        "small3": False,
        "small4": True,
        "small5": True,
    }


def test_region_implications_hold_on_enumeration():
    # the beta interval of cor313b is downward closed, and its region sits
    # inside the thm37 one; cor313a only escapes thm37 at tiny b
    for p in enumerate_params(9):
        report = classify(p)
        if report.cor313b:
            assert report.thm37
            if p.beta > 1:
                lower = classify(validate(p.a, p.b, p.c, p.beta - 1, p.gamma))
                assert lower.cor313b
        if report.cor313a:
            assert report.thm37 or report.small2 or report.small3


def test_enumeration_is_sorted_and_valid():
    params = list(enumerate_params(3))
    assert len(params) == 12
    assert params == sorted(params, key=GorensteinParams.as_tuple)
    assert params[0].as_tuple() == (2, 2, 2, 1, 1)
    for p in params:
        assert validate(*p.as_tuple()) == p
        assert 2 <= p.c <= p.a and 2 <= p.b <= p.a + p.c - 2


def test_enumeration_window():
    only_four = list(enumerate_params(4, a_min=4))
    assert all(p.a == 4 for p in only_four)
    assert set(only_four) == {
        p for p in enumerate_params(4) if p.a == 4
    }


def test_uncovered_params():
    assert list(uncovered_params(5)) == []
    first = next(uncovered_params(6))
    assert first.as_tuple() == (6, 6, 6, 1, 1)
    uncovered8 = set(p.as_tuple() for p in uncovered_params(8))
    assert (8, 7, 6, 3, 2) in uncovered8
    assert (7, 7, 6, 2, 3) in uncovered8


def test_hilbert_vector_matches_the_scan():
    count = 0
    for p in enumerate_params(7):
        q = GradedQuotient(build_ideal(p), degree_cap=p.a + p.b + p.c)
        assert hilbert_vector(p) == q.hilbert_data().h, p.as_tuple()
        count += 1
    assert count == 1176


@st.composite
def family_params(draw, a_max=12):
    a = draw(st.integers(2, a_max))
    b = draw(st.integers(2, 2 * a - 2))
    c = draw(st.integers(max(2, b - a + 2), a))
    beta = draw(st.integers(1, b - 1))
    gamma = draw(st.integers(max(1, b - a + 1), min(b - 1, c - 1)))
    return validate(a, b, c, beta, gamma)


@settings(max_examples=80, deadline=None)
@given(family_params())
def test_hilbert_terms_match_the_oracles(p):
    """The two terms of h(d) = #box_(d+beta) - dim R/(J + y^beta)_(d+beta)
    against the complete intersection's generating function and a count
    of the monomials outside (x^a, z^c, y^beta, x^(b-gamma) z^gamma)."""
    a, b, c, beta, gamma = p.as_tuple()
    top = a + b + c - 3
    box, monomial = _hilbert_terms(p)
    assert box == ci_hilbert(a, b, c)[: top + 1]
    generators = [(a, 0, 0), (0, 0, c), (0, beta, 0), (b - gamma, 0, gamma)]
    assert monomial == monomial_quotient_dims(generators, 3, top)
    # and past the scanned sizes, h keeps the Gorenstein shape
    h = hilbert_vector(p)
    assert len(h) == p.socle_degree + 1 and h[0] == 1 and h == h[::-1]


def test_sn_matrix_layout():
    m = SnMatrix(2, ((3,),), (2, 1))
    assert m.rows() == [[1, -3], [2, 1]]
    big = SnMatrix(4, ((5, 0, 2), (0, 7), (4,)), (3, 0, 1, 6))
    rows = big.rows()
    assert rows == [
        [1, -5, 0, -2],
        [0, 1, 0, -7],
        [0, 0, 1, -4],
        [3, 0, 1, 6],
    ]
    assert {type(v) for row in rows for v in row} == {int}
    # fresh lists on every call
    rows[0][0] = 9
    assert big.rows()[0][0] == 1
    assert sn_alpha(m) == (2, 7)
    check = sn_det_identity(m)
    assert check.det == 7 and check.equal and check.positive


def test_sn_all_ones_and_identity_like():
    ones = SnMatrix(3, ((1, 1), (1,)), (1, 1, 1))
    assert sn_alpha(ones) == (1, 2, 4)
    assert sn_det_identity(ones).det == 4
    trivial = SnMatrix(3, ((0, 0), (0,)), (0, 0, 1))
    assert sn_det_identity(trivial).det == 1


def test_sn_validation():
    with pytest.raises(ValueError):
        SnMatrix(1, (), (1,))
    with pytest.raises(ValueError):
        SnMatrix(3, ((1,),), (1, 1, 1))  # missing an upper row
    with pytest.raises(ValueError):
        SnMatrix(2, ((-1,),), (1, 1))
    with pytest.raises(ValueError):
        SnMatrix(2, ((1,),), (1, 0))  # last entry must be positive
    with pytest.raises(ValueError):
        random_sn(2, 0, 0)


def test_random_sn_reproducible():
    assert random_sn(5, 9, seed=42) == random_sn(5, 9, seed=42)
    rng = random.Random(42)
    assert random_sn(5, 9, rng) == random_sn(5, 9, seed=42)


def _randint_sn(size, max_entry, rng):
    # the draws as randint makes them, in the order random_sn makes them
    upper = tuple(
        tuple(rng.randint(0, max_entry) for _ in range(size - 1 - i))
        for i in range(size - 1)
    )
    last = [rng.randint(0, max_entry) for _ in range(size - 1)]
    last.append(rng.randint(1, max_entry))
    return SnMatrix(size, upper, tuple(last))


@pytest.mark.parametrize("max_entry", [1, 2, 9, 99])
def test_random_sn_draws_the_randint_stream(max_entry):
    # lemma batches stay reproducible across releases only if the stream
    # of draws is the one randint gives
    for seed in (0, 1, 7, "sn-stream"):
        ours = random.Random(seed)
        reference = random.Random(seed)
        for size in (2, 3, 5, 17, 40):
            assert random_sn(size, max_entry, ours) == _randint_sn(
                size, max_entry, reference
            )
        assert ours.random() == reference.random()


def test_sn_alpha_matches_the_pull_formula():
    rng = random.Random("sn-alpha")
    for _ in range(200):
        m = random_sn(rng.randint(2, 30), rng.choice((1, 9, 99)), rng)
        # alpha_j = last_row[j] + sum over i < j of alpha_i * upper[i][j-i-1]
        pulled = []
        for j in range(m.size):
            total = m.last_row[j]
            for i in range(j):
                total += pulled[i] * m.upper[i][j - i - 1]
            pulled.append(total)
        assert sn_alpha(m) == tuple(pulled)


def test_sn_determinant_matches_independent_oracles():
    # inside Bareiss only the bottom row is updated, along the same
    # accumulation as sn_alpha, so det == alpha alone barely tests the
    # kernel; Gaussian elimination and cofactor expansion share no code
    # with it
    rng = random.Random("sn-oracles")
    for _ in range(150):
        size = rng.randint(2, 12)
        m = random_sn(size, rng.choice((1, 9, 99)), rng)
        det = sn_det_identity(m).det
        assert det == gauss_det(m.rows())
        if size <= 6:
            assert det == laplace_det(m.rows())


def test_identity_on_random_batch():
    rng = random.Random("sn-batch")
    for _ in range(100):
        size = rng.randint(2, 6)
        check = sn_det_identity(random_sn(size, 9, rng))
        assert check.equal and check.positive
