import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import kernels
from lefschetz.family import random_sn
from value_oracles import gauss_det, laplace_det, naive_rank, naive_rref


def _as_dicts(rows):
    return [
        {j: v for j, v in enumerate(row) if v} for row in rows if any(row)
    ]


small_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda ncols: st.lists(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=ncols,
            max_size=ncols,
        ),
        min_size=1,
        max_size=6,
    )
)


def test_rref_identity_fixed_point():
    rows = [{0: 1}, {1: 1}, {2: 1}]
    out, cols = kernels.rref_int(rows)
    assert out == rows
    assert cols == [0, 1, 2]
    # rows returned unchanged are copies, never the caller's dicts
    assert not any(row is src for row, src in zip(out, rows))


def test_rref_drops_zero_and_duplicate_rows():
    rows = [{0: 2, 1: 4}, {}, {0: 1, 1: 2}, {0: -3, 1: -6}]
    out, cols = kernels.rref_int(rows)
    assert cols == [0]
    assert out == [{0: 1, 1: 2}]


def test_rref_rows_are_primitive_with_positive_pivot():
    rows = [{0: 4, 1: 6, 2: 10}, {0: 2, 2: 8}]
    out, cols = kernels.rref_int(rows)
    pivot_set = set(cols)
    for row, pcol in zip(out, cols):
        assert row[pcol] > 0
        assert gcd(*row.values()) == 1
        # entries at other pivot columns must vanish
        for c in row:
            assert c == pcol or c not in pivot_set


def test_rref_canonical_under_row_scaling_and_order():
    base = [[1, 2, 0, 3], [0, 1, 1, 1], [2, 5, 1, 7]]
    reference = kernels.rref_int(_as_dicts(base))
    scaled = [[7 * v for v in base[0]], [-3 * v for v in base[1]], base[2]]
    shuffled = [scaled[2], scaled[0], scaled[1]]
    assert kernels.rref_int(_as_dicts(shuffled)) == reference


def test_rref_rows_scaled_by_pivot_match_gauss_jordan():
    rng = random.Random(4)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [
            [rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        out, cols = kernels.rref_int(_as_dicts(rows))
        expected = naive_rref(rows)
        assert cols == [next(j for j, v in enumerate(r) if v) for r in expected]
        scaled = [
            [Fraction(row.get(j, 0), row[c]) for j in range(ncols)]
            for row, c in zip(out, cols)
        ]
        assert scaled == expected


@given(small_matrix)
@settings(max_examples=120)
def test_rref_rank_matches_naive_elimination(rows):
    _, cols = kernels.rref_int(_as_dicts(rows))
    assert len(cols) == naive_rank(rows)


@st.composite
def sparse_rows(draw):
    """Up to 10x10 mostly-zero integer matrices in -50..50, with zero rows
    and repeated (possibly rescaled) rows mixed in."""
    ncols = draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-50, 50))
    rows = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=10)
    )
    for _ in range(draw(st.integers(0, 3))):
        if len(rows) < 10:
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, 1, -1, 2, -3)))
            rows.insert(draw(st.integers(0, len(rows))), [scale * v for v in source])
    if draw(st.booleans()) and len(rows) < 10:
        rows.append([0] * ncols)
    return rows


def _primitive_dense(row):
    # a rational row with leading entry 1, scaled to a primitive integer row
    mult = lcm(*(v.denominator for v in row))
    ints = [int(v * mult) for v in row]
    g = gcd(*ints)
    return [v // g for v in ints]


@given(sparse_rows())
@settings(max_examples=300)
def test_rank_and_rref_match_naive_elimination(rows):
    dicts = [{j: v for j, v in enumerate(row) if v} for row in rows]
    before = [dict(d) for d in dicts]
    ncols = len(rows[0])
    expected = naive_rref(rows)

    assert kernels.rank_int(dicts) == naive_rank(rows)
    assert dicts == before
    out, cols = kernels.rref_int(dicts)
    assert dicts == before
    assert len(cols) == naive_rank(rows)
    assert [[row.get(j, 0) for j in range(ncols)] for row in out] == [
        _primitive_dense(r) for r in expected
    ]
    assert not any(row is d for row in out for d in dicts)


@given(sparse_rows())
@settings(max_examples=150)
def test_forward_pass_rows_are_primitive_with_positive_lead(rows):
    dicts = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots = kernels._forward(dicts)
    assert len(pivots) == naive_rank(rows)
    for lead, row in pivots.items():
        assert min(row) == lead
        assert row[lead] > 0
        assert gcd(*row.values()) == 1
        assert not any(row is d for d in dicts)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=120)
def test_det_bareiss_matches_cofactor_expansion(square):
    assert kernels.det_bareiss(square) == laplace_det(square)


def test_det_bareiss_empty_and_singular():
    assert kernels.det_bareiss([]) == 1
    assert kernels.det_bareiss([[0, 0], [1, 2]]) == 0
    assert kernels.det_bareiss([[0, 1], [1, 0]]) == -1  # needs a row swap


def test_det_bareiss_large_entries_stay_exact():
    # 3x3 with entries big enough that float64 determinants go wrong
    big = 10**20
    mat = [[big, 1, 0], [1, big, 1], [0, 1, big]]
    expected = laplace_det(mat)
    assert kernels.det_bareiss(mat) == expected


sparse_square = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9)),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


@given(sparse_square)
@settings(max_examples=200)
def test_det_bareiss_sparse_matches_cofactor_expansion(square):
    # mostly-zero entries reach the rows whose multiplier is already 0,
    # with pivots that differ from the previous one
    assert kernels.det_bareiss(square) == laplace_det(square)


def test_det_bareiss_sn_matrices_match_gaussian_elimination():
    # every upper row is skipped at every step; only the bottom row moves
    rng = random.Random(10)
    for n in (2, 3, 5, 8, 13, 21, 30, 40):
        for max_entry in (1, 9, 99):
            rows = random_sn(n, max_entry, rng).rows()
            assert kernels.det_bareiss(rows) == gauss_det(rows)


def test_det_bareiss_rescales_rows_under_non_unit_pivots():
    # triangular rows with diagonals other than 1 plus one dense row: a row
    # with multiplier 0 must still be rescaled when the pivot changes
    rng = random.Random(11)
    for n in range(2, 13):
        for _ in range(8):
            rows = [
                [0] * i
                + [rng.choice((-7, -3, -2, 2, 3, 5, 11))]
                + [rng.randint(-9, 9) for _ in range(n - 1 - i)]
                for i in range(n - 1)
            ]
            dense = [rng.randint(-99, 99) for _ in range(n)]
            rows.insert(rng.randrange(n), dense)
            expected = gauss_det(rows)
            assert kernels.det_bareiss([r[:] for r in rows]) == expected
