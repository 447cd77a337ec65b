import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import exactla, family, polyring, quotient
from lefschetz.exactla import rank
from lefschetz.polyring import (
    HomogeneousPoly,
    IdealPresentation,
    _basis_index,
    ideal_degree_slice,
    mono_mul,
    monomial_basis,
    parse_ideal,
    parse_poly,
)
from lefschetz.quotient import (
    FAILS_PROBABLY,
    HOLDS,
    CapExceededError,
    GradedQuotient,
    LinearForm,
    NotArtinianWithinCapError,
    SearchStrategy,
    _form_power,
    _product_columns,
    fixed_candidate,
)
from package_oracles import (
    colon_slice_dim,
    quotient_vector,
    residue_membership,
    slice_d_functional,
)
from value_oracles import (
    ci_hilbert,
    monomial_ci_mult_rank,
    monomial_quotient_dims,
    naive_rank,
)

BK_IDEAL = "x^3, y^3, z^3, x*y*z"  # classical weak-Lefschetz failure


def quotient_of(text, cap=None):
    return GradedQuotient(parse_ideal(text), degree_cap=cap)


def test_hilbert_frozen_small_example():
    q = quotient_of("x^2, y^2 - x*z, z^2, x*y, y*z")
    data = q.hilbert_data()
    assert data.h == (1, 3, 1)
    assert data.socle_degree == 2
    assert data.h == data.h[::-1] and data.h[-1] == 1


@pytest.mark.parametrize(
    "a,b,c,gamma",
    [(2, 2, 2, 1), (3, 3, 2, 1), (5, 4, 3, 2), (4, 4, 4, 3), (6, 5, 2, 1)],
)
def test_complete_intersection_hilbert_matches_series(a, b, c, gamma):
    q = GradedQuotient(family.build_ci(a, b, c, gamma), degree_cap=a + b + c)
    data = q.hilbert_data()
    series = ci_hilbert(a, b, c)
    assert data.socle_degree == a + b + c - 3
    assert list(data.h) == series[: a + b + c - 2]
    assert series[a + b + c - 2] == 0


def test_monomial_quotient_matches_counting_oracle():
    rng = random.Random(23)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            if sum(e) >= 1:
                gens.append(HomogeneousPoly.monomial(3, e))
        if not gens:
            continue
        ideal = IdealPresentation(3, gens)
        q = GradedQuotient(ideal, degree_cap=8)
        expts = [tuple(g.terms) for g in gens]
        dims = monomial_quotient_dims([e[0] for e in expts], 3, 6)
        assert [q.hilbert(d) for d in range(7)] == dims


def test_big_tuple_socle_degree():
    params = family.validate(8, 7, 6, 3, 2)
    q = GradedQuotient(family.build_ideal(params), degree_cap=21)
    data = q.hilbert_data()
    assert data.socle_degree == 15 == params.socle_degree
    assert data.h == data.h[::-1] and data.h[-1] == 1
    assert data.h[0] == 1 and data.h[1] == 3


def test_not_artinian_raises():
    q = quotient_of("x^2", cap=10)
    with pytest.raises(NotArtinianWithinCapError):
        q.hilbert_data()


def test_not_artinian_raises_before_building_slices():
    # no generator has a pure power of z, so R/I maps onto K[z]
    q = quotient_of("x^2, y^3, x*z - y*z", cap=50)
    with pytest.raises(NotArtinianWithinCapError, match="cap 50.*pure power of z"):
        q.hilbert_data()
    assert q._slices == {}


def test_too_few_generators_raise_before_building_slices():
    # one generator in three variables: R/I has dimension at least 2
    q = quotient_of("x^3 + y^3 + z^3", cap=50)
    with pytest.raises(NotArtinianWithinCapError, match="cap 50.*1 generator"):
        q.hilbert_data()
    assert q._slices == {}


@pytest.mark.parametrize(
    "text,nvars,point",
    [
        ("x^999 - y^999, x*y^998 - y^999, z^999", 3, (1, 1, 0)),
        ("x^2 - y^2, x*y - y^2, z^2", 3, (1, 1, 0)),
        ("x^2 - x*y + 2*y*z - 2*z^2, y^3 - z^3, x^4 - y*z^3", 3, (1, 1, 1)),
        ("x^2 - y^2, x*y - y^2", 2, (1, 1)),
        ("x^998 - y^998, x*y^997 + y^998, z^998", 3, (1, -1, 0)),
    ],
)
def test_zero_one_point_raises_before_building_slices(text, nvars, point):
    # every generator vanishes at the point, so R/I maps onto K[t]
    names = ("x", "y", "z")[:nvars]
    q = GradedQuotient(parse_ideal(text, nvars=nvars, names=names))
    cap = q.degree_cap
    with pytest.raises(
        NotArtinianWithinCapError,
        match=rf"^Hilbert function still positive at the cap {cap}: .*"
        + re.escape(str(point)),
    ):
        q.hilbert_data()
    assert q._slices == {}


def test_cap_enforced():
    q = quotient_of("x^2, y^2, z^2", cap=3)
    with pytest.raises(CapExceededError):
        q.slice(4)
    with pytest.raises(CapExceededError):
        q.multiplication_matrix(fixed_candidate(3), 3, 1)


def test_multiplication_by_ideal_member_is_zero():
    q = quotient_of("x, y^3, z^3")
    m = q.multiplication_matrix(LinearForm((1, 0, 0)), 1, 1)
    assert m == ({},) * q.hilbert(2)


def test_multiplication_matrix_frozen_example():
    q = quotient_of("x^2, y^2 - x*z, z^2, x*y, y*z")
    m = q.multiplication_matrix(fixed_candidate(3), 1, 1)
    assert m == ({0: -1, 1: -1, 2: 1},)


def test_multiplication_matrix_shape():
    """One row per target standard monomial, h(d+power) in all, empty rows
    kept, and every column below h(d): the shape is the rows' count and the
    source dimension."""
    empty = 0
    for text, coeffs in (
        (BK_IDEAL, (1, -1, -1)),
        ("x, y^3, z^3", (1, 0, 0)),  # x kills the quotient: all rows empty
        ("x^2 - y*z, y^3, x*z^2, z^4", (0, Fraction(1, 3), 1)),
        ("x^2, x*y, x*z, y^3, y^2*z^2, z^4", (1, 1, 0)),
    ):
        q = quotient_of(text, cap=6)
        form = LinearForm(coeffs)
        for power in range(1, 5):
            for degree in range(6 - power + 1):
                m = q.multiplication_matrix(form, degree, power)
                assert type(m) is tuple and len(m) == q.hilbert(degree + power)
                assert all(0 <= j < q.hilbert(degree) for row in m for j in row)
                empty += m.count({})
    assert empty > 0


def test_power_matrix_composes():
    """×ℓ² on A_1 is ×ℓ on A_2 after ×ℓ on A_1: row i of the composite is
    the sum over j of (×ℓ on A_2)[i][j] times row j of ×ℓ on A_1."""
    q = quotient_of("x^3, y^3, z^3")
    form = LinearForm((1, 2, -1))
    squared = q.multiplication_matrix(form, 1, 2)
    first = q.multiplication_matrix(form, 1, 1)
    second = q.multiplication_matrix(form, 2, 1)
    step = []
    for row in second:
        acc = {}
        for j, a in row.items():
            for k, b in first[j].items():
                acc[k] = acc.get(k, 0) + a * b
        step.append({k: v for k, v in acc.items() if v})
    assert squared == tuple(step)
    assert any(squared)


def test_multiplication_rank_matches_box_oracle():
    q = quotient_of("x^3, y^3, z^3")
    coeffs = (1, -1, 2)
    form = LinearForm(coeffs)
    for degree, power in [(0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (0, 3), (2, 2)]:
        got = rank(q.multiplication_matrix(form, degree, power))
        assert got == monomial_ci_mult_rank((3, 3, 3), coeffs, degree, power)


@given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_product_columns_match_brute_force(nvars, degree, power):
    table = _product_columns(nvars, degree, power)
    index = _basis_index(nvars, degree + power)
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert table == tuple(
        tuple(index[mono_mul(t, u)] for u in monomial_basis(nvars, power))
        for t in monomial_basis(nvars, degree)
    )


def _naive_multiplication_matrix(q, form, degree, power):
    """Multiply-then-reduce by brute force: the columns of each product are
    looked up monomial by monomial in the target basis."""
    poly = form.to_poly() ** power
    source, target = q.slice(degree), q.slice(degree + power)
    index = {m: i for i, m in enumerate(target.basis)}
    rows = {col: {} for col in target.standard_columns}
    for j, mono in enumerate(source.standard_monomials):
        vec = {index[mono_mul(t, mono)]: c for t, c in poly.terms.items()}
        for col, value in target.residue(vec).items():
            rows[col][j] = value
    return tuple(rows.values())


@st.composite
def binomial_quotients(draw):
    """(ideal, form): an ideal in 2 or 3 variables of monomial and binomial
    generators of degree 1 to 3, with integer or fractional coefficients,
    and a linear form that may have zero or fractional coefficients."""
    nvars = draw(st.sampled_from((2, 3)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        basis = monomial_basis(nvars, draw(st.integers(1, 3)))
        monos = draw(
            st.lists(st.sampled_from(basis), min_size=1, max_size=2, unique=True)
        )
        coeffs = draw(
            st.lists(
                st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 4))),
                min_size=len(monos),
                max_size=len(monos),
            )
        )
        gens.append(HomogeneousPoly(nvars, sum(monos[0]), dict(zip(monos, coeffs))))
    form = draw(
        st.lists(
            st.sampled_from((0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3))),
            min_size=nvars,
            max_size=nvars,
        ).filter(any)
    )
    return IdealPresentation(nvars, gens), LinearForm(form)


@given(binomial_quotients(), st.integers(0, 3), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_multiplication_matrix_matches_naive_reference(case, degree, power):
    ideal, form = case
    q = GradedQuotient(ideal, degree_cap=degree + power)
    assert q.multiplication_matrix(form, degree, power) == (
        _naive_multiplication_matrix(q, form, degree, power)
    )


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (1, 1, 0), (0, Fraction(1, 3), 1)])
def test_sparse_form_matrices_match_naive_reference(coeffs):
    # x, x + y and y/3 + z: zero coefficients in the form and its powers
    q = quotient_of("x^2 - y*z, y^3, x*z^2, z^4", cap=7)
    form = LinearForm(coeffs)
    for power in range(1, 5):
        for degree in range(7 - power + 1):
            assert q.multiplication_matrix(form, degree, power) == (
                _naive_multiplication_matrix(q, form, degree, power)
            )


def test_wlp_holds_with_fixed_certificate():
    q = quotient_of("x^2, y^2 - x*z, z^2, x*y, y*z")
    report = q.check_wlp()
    assert report.verdict == HOLDS
    assert report.certificate_form == fixed_candidate(3)
    assert report.strategy["certificate"] == "fixed"
    assert report.strategy["random_trials_used"] == 0
    by_degree = {r.degree: r for r in report.per_map}
    assert by_degree[0].rank == 1 and by_degree[0].maximal
    assert by_degree[1].rank == 1 and by_degree[1].maximal


def test_wlp_failure_is_reported_probably():
    q = quotient_of(BK_IDEAL)
    data = q.hilbert_data()
    assert data.h == (1, 3, 6, 6, 3)
    report = q.check_wlp(SearchStrategy(trials=3, bound=50, seed="negative"))
    assert report.verdict == FAILS_PROBABLY
    assert report.certificate_form is None
    assert report.strategy["random_trials_used"] == 3
    failed = [r for r in report.per_map if not r.maximal]
    assert failed and failed[0].degree == 2
    assert failed[0].rank == 5  # one short of the full 6


def test_slp_holds_on_monomial_complete_intersection():
    q = quotient_of("x^2, y^2, z^2")
    report = q.check_slp()
    assert report.verdict == HOLDS
    assert report.certificate_form == fixed_candidate(3)
    powers = {(r.power, r.degree) for r in report.per_map}
    assert (3, 0) in powers and all(r.maximal for r in report.per_map)


FAMILY_A4 = [p.as_tuple() for p in family.enumerate_params(4)]
SOCLE_KILLED_IDEAL = "x^2, x*y, x*z, y^3, y^2*z^2, z^4"  # symmetric, not Gorenstein


def full_power_scan(q, form):
    """Reference SLP test: maximal rank for every (power, degree) pair."""
    h = q.hilbert_data().h
    top = len(h) - 1
    return all(
        rank(q.multiplication_matrix(form, d, k)) == min(h[d], h[d + k])
        for k in range(1, top + 1)
        for d in range(top - k + 1)
    )


def plain_quotient(params) -> GradedQuotient:
    """The premise-free reference quotient of a family tuple."""
    return GradedQuotient(
        family.build_ideal(params), degree_cap=params.a + params.b + params.c
    )


@pytest.fixture(scope="module")
def family_a4():
    """Per tuple with a <= 4: the reference quotient and the
    :class:`family.FamilyQuotient`."""
    out = {}
    for key in FAMILY_A4:
        params = family.validate(*key)
        out[key] = (plain_quotient(params), family.FamilyQuotient(params))
    return out


def test_middle_criterion_true_and_false():
    # (3, 3, 2, 2, 1) has h = 1 3 3 1; x misses the socle direction it
    # should hit
    q = family.FamilyQuotient(family.validate(3, 3, 2, 2, 1))
    assert q.hilbert_data().h == (1, 3, 3, 1)
    assert q.certify(fixed_candidate(3))[0] is True
    assert q.certify(LinearForm((1, 0, 0)))[0] is False


def test_family_wlp_builds_only_the_middle_slices():
    for key in FAMILY_A4:
        q = family.FamilyQuotient(family.validate(*key))
        q.check_wlp()
        middle = q.params.socle_degree // 2
        assert sorted(q._slices) == [middle, middle + 1], key


def test_family_slp_builds_no_slice_of_a_full_degree():
    """The pairing reads slice i only where I_i is not zero, that is where
    h(i) < dim R_i, for the square maps A_i -> A_{D-i}, i < (D+1)/2."""
    full = 0
    for params in family.enumerate_params(5):
        q = family.FamilyQuotient(params)
        q.check_slp()
        h, top = q.hilbert_data().h, params.socle_degree
        low = [d for d in range((top + 1) // 2) if h[d] < len(monomial_basis(3, d))]
        assert sorted(q._slices) == low, params.as_tuple()
        full += (top + 1) // 2 - len(low)
    assert full > 0


def test_x_z_swap_pairs_share_h_and_middle_ranks():
    """For a = c the swap x <-> z sends the ideal of (a, b, a, beta, gamma)
    to that of (a, b, a, beta, b - gamma), so the two quotients are
    isomorphic by the swap: equal h, and the middle map of a form l on the
    first has the rank of the swapped form on the second.  The fixed form
    x - y - z is not fixed by the swap: it goes to z - y - x.  Its own
    ranks on the two quotients agree as well.  For even b that follows from
    the sign change y -> -y, which fixes both ideals; for odd b it is only
    measured, on these 225 pairs."""
    rng = random.Random("x-z-swap")
    forms = [fixed_candidate(3)] + [
        LinearForm([rng.randint(-9, 9) for _ in range(3)]) for _ in range(2)
    ]

    def swapped(form):
        return LinearForm(form.coefficients[::-1])

    pairs = 0
    for params in family.enumerate_params(6):
        a, b, c, beta, gamma = params.as_tuple()
        if a != c:
            continue
        q = family.FamilyQuotient(params)
        mirror = family.FamilyQuotient(family.validate(a, b, a, beta, b - gamma))
        assert q.hilbert_data() == mirror.hilbert_data(), params.as_tuple()
        for form in forms:
            assert q.certify(form) == mirror.certify(swapped(form))
        fixed = fixed_candidate(3)
        assert q.certify(fixed) == mirror.certify(fixed)
        pairs += 1
    assert pairs == 225


def test_wrong_socle_degree_is_caught():
    """A family quotient's stated shape is checked only by a necessary
    condition, and the premise-free scan states none.

    The scan ends at the socle degree of the tuple, on (3, 3, 3, 1, 1) with
    h = 1 3 6 6 3 1 and on the flat vector h = 1 3 3 3 1 of (4, 2, 2, 1, 1)
    alike.  The ideal x^3, x^2*y, x^2*z, x*y^2, x*y*z has no pure power of
    y or z, so its scan raises before any slice is built.  Adding
    generators in degrees 5 to 7 makes it Artinian with the palindromic
    vector h = 1 3 6 5 6 3 1, which rises past the middle, so it cannot be
    a codimension-three Gorenstein vector: a family quotient given that h
    refuses the middle test.
    """
    for key, cap in (((3, 3, 3, 1, 1), 9), ((4, 2, 2, 1, 1), 8)):
        params = family.validate(*key)
        right = GradedQuotient(family.build_ideal(params), cap)
        assert right.hilbert_data().socle_degree == params.socle_degree
    text = "x^3, x^2*y, x^2*z, x*y^2, x*y*z"
    q = GradedQuotient(parse_ideal(text))
    with pytest.raises(NotArtinianWithinCapError):
        q.hilbert_data()
    assert q._slices == {}
    text += ", y^5, y^4*z, y^3*z^2, y^2*z^3, x*z^5, y*z^5, z^7"
    h = GradedQuotient(parse_ideal(text)).hilbert_data().h
    assert h == (1, 3, 6, 5, 6, 3, 1)
    # (4, 3, 3, 1, 1) has socle degree 6, the length of h less one
    fq = family.FamilyQuotient(family.validate(4, 3, 3, 1, 1))
    fq._hilbert = quotient.HilbertData(h)
    with pytest.raises(family.NotGorensteinShapeError):
        fq.check_wlp()
    assert fq._slices == {}


def assert_criteria_agree(plain, flagged, form):
    """Narrow SLP and middle WLP verdicts against the full scans; returns
    the (WLP, SLP) verdicts."""
    slp = full_power_scan(plain, form)
    assert plain.certify_powers(form)[0] == slp
    wlp, per = plain.certify(form)
    assert len(per) == plain.hilbert_data().socle_degree
    middle, middle_per = flagged.certify(form)
    assert middle == wlp
    (rec,) = middle_per
    top = flagged.hilbert_data().socle_degree
    assert (rec.power, rec.degree) == (1, top // 2)
    assert rec.dim_from >= rec.dim_to
    assert rec.maximal == (rec.rank == rec.dim_to)
    return wlp, slp


def test_narrow_criteria_match_full_scans_on_family(family_a4):
    x, y, z = LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((0, 0, 1))
    forms = [fixed_candidate(3), x, y, z, LinearForm((1, 1, 0))]
    seen = set()
    for plain, flagged in family_a4.values():
        for form in forms:
            seen.add(assert_criteria_agree(plain, flagged, form))
    # holding and failing forms both occur for WLP and for SLP
    assert {wlp for wlp, _ in seen} == {True, False}
    assert {slp for _, slp in seen} == {True, False}


@given(
    st.sampled_from(FAMILY_A4),
    st.tuples(*[st.integers(-9, 9)] * 3).filter(any),
)
@settings(max_examples=25, deadline=None)
def test_narrow_criteria_match_full_scans_on_random_forms(family_a4, key, coeffs):
    plain, flagged = family_a4[key]
    assert_criteria_agree(plain, flagged, LinearForm(coeffs))


def pairing_and_scan(q, form):
    """SLP records of a family quotient by the socle pairing and by
    multiplication matrices over the same square maps."""
    criterion, pairs = q._pairs(True)
    assert criterion == "pairing"
    return q.certify_powers(form), q._scan(form, pairs)


class SliceDQuotient(family.FamilyQuotient):
    """A family quotient whose socle pairing reads φ off slice D."""

    def _socle_functional(self):
        return slice_d_functional(self)


def test_pairing_matches_matrix_scan_on_family():
    """Both sources of the socle functional, slice D and
    :func:`family.socle_monomials`, give the records of the matrix scan."""
    rng = random.Random("pairing")
    x, y, z = LinearForm((1, 0, 0)), LinearForm((0, 1, 0)), LinearForm((0, 0, 1))
    forms = [fixed_candidate(3), x, y, z, LinearForm((1, 1, 0))] + [
        LinearForm([rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3)])
        for _ in range(2)
    ]
    checks = 0
    verdicts = set()
    for params in family.enumerate_params(5):
        q = SliceDQuotient(params)
        fq = family.FamilyQuotient(params)
        for form in forms:
            pairing, scan = pairing_and_scan(q, form)
            assert pairing == scan, (params.as_tuple(), form)
            assert fq.certify_powers(form) == scan, (params.as_tuple(), form)
            verdicts.add(pairing[0])
            checks += 1
    assert checks == 1400 and verdicts == {True, False}


def test_family_socle_functional_is_the_slice_d_functional():
    """φ read off :func:`family.socle_monomials` is a nonzero multiple of
    the functional read off slice D, for every tuple with a <= 6."""
    tuples = 0
    for params in family.enumerate_params(6):
        fq = family.FamilyQuotient(params)
        (s,) = fq.slice(params.socle_degree).standard_columns
        generic = slice_d_functional(fq)
        phi = fq._socle_functional()
        assert phi[s] != 0, params.as_tuple()
        assert phi == [phi[s] * v for v in generic], params.as_tuple()
        tuples += 1
    assert tuples == 525


def test_socle_monomials_of_one_tuple():
    # (5, 4, 3, 1, 2): D = 8, t_q = x^(4-2q) y^(2+4q) z^(2-2q) for q = 0, 1
    params = family.validate(5, 4, 3, 1, 2)
    assert family.socle_monomials(params) == ((4, 2, 2), (2, 6, 0))
    for t in family.socle_monomials(params):
        assert sum(t) == params.socle_degree


def test_singular_grams_are_ranked_by_the_fallback(monkeypatch):
    """A Gram matrix with determinant 0 is ranked by :func:`exactla.rank`.
    With x - y - z four Grams at a <= 4 are singular, two of them of rank
    above 0; every other Gram is nonsingular and ranked by its size."""
    fixed = fixed_candidate(3)
    fallback = []

    def counted_rank(rows):
        r = rank(rows)
        fallback.append(r)
        return r

    singular = {}
    for key in FAMILY_A4:
        fq = family.FamilyQuotient(family.validate(*key))
        fallback.clear()
        with monkeypatch.context() as patched:
            patched.setattr(exactla, "rank", counted_rank)
            pairing = fq.certify_powers(fixed)
        assert pairing == fq._scan(fixed, fq._pairs(True)[1]), key
        short = [(r.dim_from, r.rank) for r in pairing[1] if not r.maximal]
        assert [r for _, r in short] == fallback, key
        if fallback:
            singular[key] = short
    assert singular == {
        (3, 2, 2, 1, 1): [(1, 0)],
        (3, 2, 3, 1, 1): [(3, 2)],
        (4, 3, 3, 2, 2): [(1, 0)],
        (4, 3, 4, 2, 2): [(6, 5)],
    }


def test_family_slp_ranks_match_the_x_z_swap():
    """For a = c the swap σ of x and z maps the quotient of
    (a, b, a, beta, gamma) onto that of (a, b, a, beta, b - gamma), so the
    square map of ℓ on the first has the rank of σℓ on the second, on the
    family path as on the scan path."""
    rng = random.Random("x-z-swap-slp")
    forms = [fixed_candidate(3)] + [
        LinearForm([rng.randint(-9, 9) for _ in range(3)]) for _ in range(2)
    ]
    checks = 0
    for params in family.enumerate_params(6):
        a, b, c, beta, gamma = params.as_tuple()
        if a != c:
            continue
        fq = family.FamilyQuotient(params)
        mirror = family.FamilyQuotient(family.validate(a, b, a, beta, b - gamma))
        for form in forms:
            swapped = LinearForm(form.coefficients[::-1])
            assert fq.certify_powers(form) == mirror.certify_powers(swapped), (
                params.as_tuple(),
                form,
            )
            checks += 1
    assert checks == 675


@pytest.mark.parametrize("coeffs", [(1, -1), (1, -1, -1, 5)])
def test_forms_of_the_wrong_size_are_rejected(coeffs):
    # the pairing path zipped the form with the variables and read a prefix
    params = family.validate(4, 3, 3, 1, 1)
    form = LinearForm(coeffs)
    for q in (family.FamilyQuotient(params), plain_quotient(params)):
        for scan in (q.certify, q.certify_powers):
            with pytest.raises(ValueError, match="form variable count mismatch"):
                scan(form)


@pytest.mark.parametrize("coeffs", [(1, 2), (1, 2, 3, 4)])
def test_form_size_is_checked_with_no_map_to_rank(coeffs):
    # A = K has no map to rank, so only the entry check sees the form
    form = LinearForm(coeffs)
    q = GradedQuotient(parse_ideal("x, y, z"))
    assert q.hilbert_data().h == (1,)
    for scan in (q.certify, q.certify_powers):
        with pytest.raises(ValueError, match="form variable count mismatch"):
            scan(form)
    # the form is checked before the Hilbert scan, which raises here
    q = GradedQuotient(parse_ideal("x^2, y^2"))
    for scan in (q.certify, q.certify_powers):
        with pytest.raises(ValueError, match="form variable count mismatch"):
            scan(form)
        with pytest.raises(NotArtinianWithinCapError):
            scan(fixed_candidate(3))


def test_family_searches_name_their_criterion(family_a4):
    plain, flagged = family_a4[(3, 2, 2, 1, 1)]
    middle, full = flagged.check_wlp(), plain.check_wlp()
    assert (middle.strategy["criterion"], full.strategy["criterion"]) == (
        "middle",
        "full",
    )
    assert middle.verdict == full.verdict == HOLDS
    assert middle.certificate_form == full.certificate_form
    # x - y - z fails SLP here, so the pairing search certifies a random form
    slp = flagged.check_slp()
    assert slp.strategy["criterion"] == "pairing"
    assert plain.check_slp().strategy["criterion"] == "narrow"
    assert slp.verdict == HOLDS and slp.strategy["certificate"] == "random"
    assert not full_power_scan(plain, fixed_candidate(3))
    assert full_power_scan(plain, slp.certificate_form)
    assert quotient_of(BK_IDEAL).check_slp().strategy["criterion"] == "full"


def test_symmetric_non_gorenstein_keeps_the_full_wlp_scan():
    q = quotient_of(SOCLE_KILLED_IDEAL)
    assert q.hilbert_data().h == (1, 3, 3, 3, 1)
    fixed = fixed_candidate(3)
    # x is a socle element every form kills
    report = q.check_wlp()
    assert report.verdict == FAILS_PROBABLY
    assert report.strategy["criterion"] == "full"
    slp = q.check_slp(SearchStrategy(trials=2))
    assert slp.verdict == FAILS_PROBABLY
    assert slp.strategy["criterion"] == "narrow"
    for form in (fixed, LinearForm((2, 3, -5))):
        assert q.certify_powers(form)[0] is False
        assert full_power_scan(q, form) is False


def test_colon_with_unit_recovers_slice():
    ideal = parse_ideal("x^2, y^2, z^3")
    one = HomogeneousPoly(3, 0, {(0, 0, 0): 1})
    q = GradedQuotient(ideal)
    for d in range(5):
        assert colon_slice_dim(q, one, d) == ideal_degree_slice(ideal, d).rank


def test_colon_single_variable_ring():
    ideal = parse_ideal("x^2", nvars=1, names=("x",))
    x = parse_poly("x", 1, ("x",))
    q = GradedQuotient(ideal)
    assert colon_slice_dim(q, x, 0) == 0
    assert colon_slice_dim(q, x, 1) == 1  # x*x lands in (x^2)


def test_family_ideal_is_colon_of_its_complete_intersection():
    # the five-generator presentation must match (ci : y^beta) degreewise
    a, b, c, beta, gamma = 5, 4, 3, 2, 2
    params = family.validate(a, b, c, beta, gamma)
    ci = family.build_ci(a, b, c, gamma)
    ideal = family.build_ideal(params)
    y_beta = HomogeneousPoly.monomial(3, (0, beta, 0))
    q = GradedQuotient(ci)
    for d in range(params.socle_degree + 2):
        assert colon_slice_dim(q, y_beta, d) == ideal_degree_slice(ideal, d).rank


def test_residue_membership_flags():
    square = parse_ideal("y^2 + 2*y*z + z^2", nvars=2, names=("y", "z"))
    assert residue_membership(square, 2) == [False, False, False]
    axes = parse_ideal("y, z", nvars=2, names=("y", "z"))
    assert residue_membership(axes, 1) == [True, True]
    zonly = parse_ideal("z", nvars=2, names=("y", "z"))
    assert residue_membership(zonly, 2) == [False, True, True]
    with pytest.raises(ValueError):
        residue_membership(parse_ideal("x^2"), 2)


def test_quotient_vector_reduces_to_standard_monomials():
    q = quotient_of("x^2, y^2 - x*z, z^2, x*y, y*z")
    xz = parse_poly("x*z")
    assert quotient_vector(q, xz) == {3: Fraction(1)}  # column of y^2
    assert quotient_vector(q, parse_poly("x^2")) == {}
    assert quotient_vector(q, parse_poly("y^2")) == {3: Fraction(1)}


def test_strategy_and_form_validation():
    with pytest.raises(ValueError):
        SearchStrategy(trials=0)
    with pytest.raises(ValueError):
        SearchStrategy(bound=0)
    with pytest.raises(ValueError):
        LinearForm((0, 0, 0))
    assert fixed_candidate(3).coefficients == (1, -1, -1)
    assert fixed_candidate(3) is fixed_candidate(3)
    assert fixed_candidate(2).as_text(("y", "z")) == "y - z"
    form = LinearForm((7020, Fraction(1, 2), -2618))
    for names in (None, ("u", "v", "w")):
        text = form.to_poly().as_text(names)
        assert form.as_text(names) == text  # rendered
        assert form.as_text(names) == text  # read back from the cache


def test_search_is_seed_deterministic():
    q = quotient_of(BK_IDEAL)
    first = q.check_wlp(SearchStrategy(trials=2, bound=9, seed="s"))
    second = q.check_wlp(SearchStrategy(trials=2, bound=9, seed="s"))
    assert first == second


def _exact(value) -> bool:
    """An int, or a Fraction that is not an integer; never a float, a bool
    or an integral Fraction."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


@given(
    st.sampled_from(list(family.enumerate_params(4))),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3).filter(any),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_family_values_stay_int(params, coeffs, as_fractions):
    """Integer inputs keep every value on the verdict path an int: slice
    echelon rows, form powers, residues and multiplication matrices."""
    form = LinearForm([Fraction(c) for c in coeffs] if as_fractions else coeffs)
    assert all(type(c) is int for c in form.coefficients)
    top = params.socle_degree
    q = family.FamilyQuotient(params)
    for d in range(top + 1):
        for row in q.slice(d).echelon.rows.values():
            assert all(map(_exact, row.values()))
    for power in range(1, top + 1):
        poly = _form_power(form.coefficients, power)
        assert all(map(_exact, poly.terms.values()))
        assert all(map(_exact, quotient_vector(q, poly).values()))
        for d in range(top - power + 1):
            m = q.multiplication_matrix(form, d, power)
            for row in m:
                assert all(map(_exact, row.values()))
            cols = q.hilbert(d)
            dense = [[row.get(j, 0) for j in range(cols)] for row in m]
            assert rank(m) == naive_rank(dense)


def test_conftest_clears_the_shared_tables():
    assert polyring.multiple_columns.cache_info().currsize == 0
    assert quotient.fixed_candidate.cache_info().currsize == 0
    assert quotient._form_text.cache_info().currsize == 0
