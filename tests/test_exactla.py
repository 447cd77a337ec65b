import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import kernels
from lefschetz.exactla import (
    NotSquareError,
    RatMatrix,
    _coerce,
    determinant,
    kernel_basis,
    rank,
    reduce_mod_echelon,
    rref,
)
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


def test_identity_and_zero():
    eye = RatMatrix.identity(3)
    assert rank(eye) == 3
    assert determinant(eye.to_lists()) == 1
    assert rref(eye).rows == {i: {i: 1} for i in range(3)}
    zero = RatMatrix.zero(2, 4)
    assert rank(zero) == 0
    assert rref(zero).pivot_columns == ()
    assert len(kernel_basis(zero)) == 4


def test_rank_one_outer_product():
    m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    ech = rref(m)
    assert ech.rank == 1
    assert ech.pivot_columns == (0,)
    assert ech.rows[0] == {0: 1, 1: 2, 2: 3}


def test_kernel_of_sum_functional():
    m = RatMatrix.from_rows([[1, 1]])
    (vec,) = kernel_basis(m)
    assert vec == [Fraction(-1), Fraction(1)]


def test_degree_two_slice_matrix_frozen():
    # relations among degree-2 monomials x2 xy xz y2 yz z2 coming from the
    # generators (x^2, y^2 - xz, z^2, xy, yz)
    m = RatMatrix.from_rows(
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
        RatMatrix.zero(2, 3).to_lists(),
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


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        RatMatrix.zero(2, 3) @ RatMatrix.zero(2, 3)


def test_entry_validation():
    for row in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            RatMatrix([{}, row], 2)
    with pytest.raises(ValueError):
        RatMatrix([], -1)
    with pytest.raises(ValueError):
        RatMatrix.zero(-1, 2)
    m = RatMatrix([{0: Fraction(4, 2), 1: 0}, {1: Fraction(1, 3)}], 2)
    assert m.rows == ({0: 2}, {1: Fraction(1, 3)})
    assert type(m.rows[0][0]) is int


def test_shape_is_part_of_equality():
    assert RatMatrix.zero(2, 3) != RatMatrix.zero(3, 3)
    assert RatMatrix.zero(2, 3) != RatMatrix.zero(2, 2)
    assert RatMatrix.zero(2, 3) == RatMatrix([{}, {}], 3)
    assert hash(RatMatrix.zero(2, 3)) == hash(RatMatrix([{}, {}], 3))
    # an empty last row and an empty last column survive a round trip
    m = RatMatrix([{0: 1}, {}], 3)
    t = m.transpose()
    assert t.rows == ({0: 1}, {}, {}) and t.cols == 2
    assert t.transpose() == m


def test_reduce_mod_echelon_membership():
    m = RatMatrix.from_rows([[1, 0, 2], [0, 1, -1]])
    ech = rref(m)
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
    ech = rref(RatMatrix.from_rows(rows))
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
    m = RatMatrix.from_rows(rows)
    r = rank(m)
    assert r == naive_rank(rows)
    assert r == rref(m).rank
    assert r == rank(m.transpose())


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
    m = RatMatrix(rows, 3)
    assert rank(m) == naive_rank(m.to_lists()) == 2
    assert rank(RatMatrix.zero(3, 4)) == 0


@given(matrices())
@settings(max_examples=100)
def test_rref_is_idempotent_and_pivots_are_unit(rows):
    ech = rref(RatMatrix.from_rows(rows))
    again = rref(RatMatrix(ech.rows.values(), len(rows[0])))
    assert again.rows == ech.rows
    assert again.pivot_columns == ech.pivot_columns
    for pcol, row in ech.rows.items():
        assert row[pcol] == 1


@given(matrices())
@settings(max_examples=100)
def test_kernel_vectors_annihilate(rows):
    m = RatMatrix.from_rows(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for vec in basis:
        col = RatMatrix.from_rows([[v] for v in vec])
        assert (m @ col).to_lists() == [[0]] * len(rows)


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
    a = RatMatrix.from_rows(a_rows)
    b = RatMatrix.from_rows(b_rows)
    product = (a @ b).to_lists()
    assert determinant(product) == determinant(a_rows) * determinant(b_rows)
    assert determinant(a_rows) == laplace_det(a_rows)


def test_determinant_row_swap_flips_sign():
    rows = [[0, 2], [3, 0]]
    swapped = [[3, 0], [0, 2]]
    assert determinant(rows) == -determinant(swapped) == Fraction(-6)
