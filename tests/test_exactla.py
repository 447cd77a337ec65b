import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import kernels
from lefschetz.exactla import (
    NotSquareError,
    _coerce,
    _integer_row,
    determinant,
    rank,
    reduce_mod_echelon,
    rref,
)
from package_oracles import kernel_basis
from value_oracles import gauss_det, laplace_det, naive_rank, naive_rref

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def matrices(max_dim=5):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(rationals, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def sparse(dense) -> list:
    """The ``{column: value}`` rows of dense rows, zero entries kept: the
    readers must drop them."""
    return [dict(enumerate(row)) for row in dense]


def dense(rows, cols) -> list:
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def test_identity_and_zero():
    eye = [{i: 1} for i in range(3)]
    assert rank(eye) == 3
    assert determinant(dense(eye, 3)) == 1
    assert rref(eye).rows == {i: {i: 1} for i in range(3)}
    zero = [{}, {}]
    assert rank(zero) == 0 and rank([]) == 0
    assert rref(zero).pivot_columns == ()
    assert len(kernel_basis(zero, 4)) == 4


def test_rank_one_outer_product():
    ech = rref(sparse([[1, 2, 3], [2, 4, 6], [-1, -2, -3]]))
    assert ech.rank == 1
    assert ech.pivot_columns == (0,)
    assert ech.rows[0] == {0: 1, 1: 2, 2: 3}


def test_kernel_of_sum_functional():
    (vec,) = kernel_basis([{0: 1, 1: 1}], 2)
    assert vec == [Fraction(-1), Fraction(1)]


def test_degree_two_slice_matrix_frozen():
    # relations among degree-2 monomials x2 xy xz y2 yz z2 coming from the
    # generators (x^2, y^2 - xz, z^2, xy, yz)
    m = sparse(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 0, -1, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
        ]
    )
    ech = rref(m)
    assert ech.rank == 5
    assert ech.pivot_columns == (0, 1, 2, 4, 5)
    # the pivot-2 row is xz - y^2 after normalization
    assert ech.rows[2] == {2: Fraction(1), 3: Fraction(-1)}


def test_determinant_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert determinant(rows) == Fraction(1, 60)


def test_determinant_int_and_mixed_rows_match_gauss():
    # all-int rows are taken as they are; a row holding a Fraction is
    # scaled to integers first, and mixed rows hold both kinds
    rng = random.Random("det-int-mixed")
    values = (0, 0, 0, 1, -1, 2, 7, -12, Fraction(1, 2), Fraction(-5, 3))
    for trial in range(300):
        n = rng.randint(1, 6)
        pool = values if trial % 2 else values[:8]
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            rows[rng.randrange(n)] = [0] * n
        assert determinant(rows) == gauss_det(rows)
    int_zero_row = [[1, -3, 5], [0, 0, 0], [4, 2, 9]]
    assert determinant(int_zero_row) == 0
    mixed = [[2, Fraction(1, 3)], [Fraction(3, 4), -1]]
    assert determinant(mixed) == gauss_det(mixed)


def test_determinant_requires_square():
    for rows in (
        [[0, 0, 0], [0, 0, 0]],
        [[1, 2], [3]],
        [[1], [2, 3]],
        [[1, 2, 3], [4, 5, 6], [7, 8]],
        [[]],
    ):
        with pytest.raises(NotSquareError):
            determinant(rows)
    assert determinant([]) == 1


def test_determinant_coerces_float_and_bool_entries():
    # every non-int value is read as _coerce reads it, so the result is
    # exact and never a float
    cases = [
        ([[0.5, 0], [0, 2]], 1),
        ([[0.25, 0.5], [0.5, 3]], Fraction(1, 2)),
        ([[True, False], [False, True]], 1),
        ([[True, 2], [3, True]], -5),
        ([[0.1, 0], [0, 1]], Fraction(0.1)),
        ([[1.5, True], [Fraction(1, 3), 2.0]], Fraction(8, 3)),
    ]
    for rows, expected in cases:
        det = determinant(rows)
        coerced = [[_coerce(v) for v in row] for row in rows]
        assert det == expected == gauss_det(coerced)
        assert type(det) in (int, Fraction)
        assert type(det) is int or det.denominator > 1


def test_determinant_leaves_the_rows_unchanged():
    rng = random.Random("det-rows-unchanged")
    pool = (0, 1, -1, 3, 17, Fraction(1, 2), Fraction(-5, 3), 0.5, True)
    for trial in range(100):
        n = rng.randint(1, 6)
        ints = trial % 2 == 0
        rows = [
            [rng.choice(pool[:5] if ints else pool) for _ in range(n)]
            for _ in range(n)
        ]
        before = [list(row) for row in rows]
        kinds = [[type(v) for v in row] for row in rows]
        determinant(rows)
        assert rows == before
        assert [[type(v) for v in row] for row in rows] == kinds
    tuples = ((2, 1), (7, 4))
    assert determinant(tuples) == 1 and tuples == ((2, 1), (7, 4))


def test_entry_validation():
    # a zero entry is no entry: kept, it would make the rows independent
    assert rank([{0: 0, 1: 1}, {1: 1}]) == 1
    assert rref([{0: 0, 1: 1}, {1: 1}]).rows == {1: {1: 1}}
    rows = [{0: Fraction(4, 2), 1: 0}, {1: Fraction(1, 3)}]
    assert rref(rows).rows == {0: {0: 1}, 1: {1: 1}}
    assert rows == [{0: 2, 1: 0}, {1: Fraction(1, 3)}]
    assert type(rows[0][0]) is Fraction
    for row in (rows[0], {0: 0, 1: 3}, {0: 1, 1: 0.5}, {0: True, 1: -2}):
        mult, out = _integer_row(row)
        assert all(type(v) is int and v for v in out.values())
        assert {c: Fraction(v, mult) for c, v in out.items()} == {
            c: _coerce(v) for c, v in row.items() if v
        }
    nonzero = {0: 3, 2: -5}
    mult, out = _integer_row(nonzero)
    assert mult == 1 and out is nonzero


# values of every kind a row may hand to the normalizer: zeros of each kind,
# bools, dyadic and other floats, integral and proper Fractions
mixed_values = st.one_of(
    st.sampled_from((0, 0.0, Fraction(0), False, True)),
    st.integers(-9, 9),
    st.floats(-8, 8, allow_nan=False, width=16),
    st.integers(-6, 6).map(lambda n: Fraction(2 * n, 2)),
    rationals,
)


@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.lists(
            st.dictionaries(st.integers(0, shape[1] - 1), mixed_values),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda rows: (rows, shape[1]))
    )
)
@settings(max_examples=150)
def test_rank_and_rref_normalize_each_row_once(case):
    rows, ncols = case
    before = [dict(row) for row in rows]
    kinds = [{c: type(v) for c, v in row.items()} for row in rows]
    coerced = [[_coerce(v) for v in row] for row in dense(rows, ncols)]
    ech = rref(rows)
    assert rank(rows) == ech.rank == naive_rank(coerced)
    assert dense(ech.rows.values(), ncols) == naive_rref(coerced)
    assert all(type(v) in (int, Fraction) for r in ech.rows.values() for v in r.values())
    assert rows == before
    assert [{c: type(v) for c, v in row.items()} for row in rows] == kinds


def test_reduce_mod_echelon_membership():
    ech = rref(sparse([[1, 0, 2], [0, 1, -1]]))
    inside = {0: Fraction(3), 1: Fraction(5), 2: Fraction(1)}  # 3*r0 + 5*r1
    assert reduce_mod_echelon(ech, inside) == {}
    outside = reduce_mod_echelon(ech, {0: Fraction(1)})
    assert outside and all(c not in ech.pivot_columns for c in outside)


def _sequential_remainder(rows, vec) -> dict:
    """Textbook reduction: clear each pivot of the ``naive_rref`` rows in
    turn, using the coefficient the vector has at that moment."""
    out = [Fraction(v) for v in vec]
    for row in naive_rref(rows):
        pivot = next(j for j, v in enumerate(row) if v)
        coeff = out[pivot]
        if coeff:
            out = [a - coeff * b for a, b in zip(out, row)]
    return {j: v for j, v in enumerate(out) if v}


@st.composite
def matrices_and_vectors(draw):
    """A matrix and a vector of its width: a random combination of its rows,
    plus noise that is sometimes zero, so both members and non-members of
    the row space occur."""
    rows = draw(matrices())
    ncols = len(rows[0])
    weights = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    vec = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(ncols)]
    if draw(st.booleans()):
        noise = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        vec = [v + e for v, e in zip(vec, noise)]
    return rows, vec


@given(matrices_and_vectors())
@settings(max_examples=100)
def test_reduce_mod_echelon_matches_sequential_reduction(case):
    rows, vec = case
    ech = rref(sparse(rows))
    # zero entries are passed on purpose: they must be ignored
    rem = reduce_mod_echelon(ech, dict(enumerate(vec)))
    assert rem == _sequential_remainder(rows, vec)
    assert not set(rem) & set(ech.pivot_columns)
    assert all(rem.values())
    diff = [v - rem.get(j, 0) for j, v in enumerate(vec)]
    assert naive_rank(rows + [diff]) == naive_rank(rows)


@given(matrices())
@settings(max_examples=100)
def test_rank_agrees_with_naive_and_transpose(rows):
    r = rank(sparse(rows))
    assert r == naive_rank(rows)
    assert r == rref(sparse(rows)).rank
    assert r == rank(sparse(zip(*rows)))


def test_rank_never_back_substitutes(monkeypatch):
    # rank reads the forward pass only; rref_int is the back-substitution
    def boom(rows):
        raise AssertionError("rank called rref_int")

    monkeypatch.setattr(kernels, "rref_int", boom)
    half = Fraction(1, 2)
    rows = [
        {0: half, 2: Fraction(-2, 3)},
        {},
        {0: 3, 2: -4},
        {1: Fraction(5, 7)},
        {},
        {0: Fraction(3, 4), 1: Fraction(5, 7), 2: -1},
    ]
    assert rank(rows) == naive_rank(dense(rows, 3)) == 2
    assert rank([{}] * 3) == 0


@given(matrices())
@settings(max_examples=100)
def test_rref_is_idempotent_and_pivots_are_unit(rows):
    ech = rref(sparse(rows))
    again = rref(ech.rows.values())
    assert again.rows == ech.rows
    assert again.pivot_columns == ech.pivot_columns
    for pcol, row in ech.rows.items():
        assert row[pcol] == 1


@given(matrices())
@settings(max_examples=100)
def test_kernel_vectors_annihilate(rows):
    ncols = len(rows[0])
    basis = kernel_basis(sparse(rows), ncols)
    assert len(basis) == ncols - rank(sparse(rows))
    for vec in basis:
        assert len(vec) == ncols
        assert [sum(a * v for a, v in zip(row, vec)) for row in rows] == [0] * len(rows)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(rationals, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.lists(rationals, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
@settings(max_examples=80)
def test_determinant_is_multiplicative(pair):
    a_rows, b_rows = pair
    product = [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*b_rows)]
        for row in a_rows
    ]
    assert determinant(product) == determinant(a_rows) * determinant(b_rows)
    assert determinant(a_rows) == laplace_det(a_rows)


def test_determinant_row_swap_flips_sign():
    rows = [[0, 2], [3, 0]]
    swapped = [[3, 0], [0, 2]]
    assert determinant(rows) == -determinant(swapped) == Fraction(-6)
