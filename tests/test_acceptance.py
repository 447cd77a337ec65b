"""Acceptance gate: one test per release criterion.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line into the terminal
summary.  The shared sweep fixture walks every valid parameter tuple with
a <= 7 once, recording verdicts and per-tuple structure; the criteria then
assert over those records plus their own independent oracles.
"""

import random
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import pytest
from conftest import record_acceptance

from lefschetz import family
from lefschetz.polyring import HomogeneousPoly, ideal_degree_slice
from lefschetz.quotient import HOLDS, GradedQuotient, LinearForm, fixed_candidate
from lefschetz.semigroup import NumericalSemigroup
from package_oracles import (
    colon_slice_dim,
    eliminate_linear_form,
    residue_membership,
)
from value_oracles import ci_hilbert, length_sets

A_MAX = 7
SLP_A_MAX = 5
SEED = 20250816


@contextmanager
def criterion(number: int):
    passed = False
    try:
        yield
        passed = True
    finally:
        record_acceptance(number, passed)
        print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'}")


@dataclass(frozen=True)
class SweepRow:
    params: family.GorensteinParams
    h: tuple
    socle_degree: int
    covered: bool
    flags: tuple
    verdict: str
    fixed_certifies: bool
    middle_passes: bool
    residue_all_in: bool


def _row_for(params: family.GorensteinParams) -> tuple:
    """One tuple's full record plus its hilbert/wlp timings in seconds."""
    ideal = family.build_ideal(params)
    cap = params.a + params.b + params.c
    q = GradedQuotient(ideal, degree_cap=cap)
    t0 = perf_counter()
    data = q.hilbert_data()
    t_hilbert = perf_counter() - t0
    t0 = perf_counter()
    report = q.check_wlp()
    t_wlp = perf_counter() - t0
    coverage = family.classify(params)
    fixed = fixed_candidate(3)
    middle = family.FamilyQuotient(params).certify(fixed)[0]
    k = data.socle_degree // 2
    residue_ideal = eliminate_linear_form(ideal, fixed, 0)
    residue = all(residue_membership(residue_ideal, k + 1))
    row = SweepRow(
        params=params,
        h=data.h,
        socle_degree=data.socle_degree,
        covered=coverage.covered,
        flags=coverage.true_flags(),
        verdict=report.verdict,
        fixed_certifies=(
            report.verdict == HOLDS and report.certificate_form == fixed
        ),
        middle_passes=middle,
        residue_all_in=residue,
    )
    return row, t_hilbert, t_wlp


@pytest.fixture(scope="module")
def sweep():
    rows = {}
    hilbert_seconds = 0.0
    wlp_seconds = 0.0
    for params in family.enumerate_params(A_MAX):
        row, t_hilbert, t_wlp = _row_for(params)
        rows[params.as_tuple()] = row
        hilbert_seconds += t_hilbert
        wlp_seconds += t_wlp
    return {
        "rows": rows,
        "hilbert_seconds": hilbert_seconds,
        "wlp_seconds": wlp_seconds,
    }


def test_criterion_1_gorenstein_structure(sweep):
    with criterion(1):
        rows = sweep["rows"]
        assert len(rows) > 500
        for key, row in rows.items():
            a, b, c, beta, _ = key
            assert row.socle_degree == a + b + c - beta - 3, key
            assert row.h[-1] == 1, key
            assert row.h == tuple(reversed(row.h)), key
            assert row.h[0] == 1, key
        assert sweep["hilbert_seconds"] < 120.0


def test_criterion_2_colon_identity(sweep):
    with criterion(2):
        rng = random.Random(SEED)
        pool = sorted(sweep["rows"])
        sample = rng.sample(pool, 30)
        for a, b, c, beta, gamma in sample:
            params = family.validate(a, b, c, beta, gamma)
            ci = GradedQuotient(
                family.build_ci(a, b, c, gamma), degree_cap=a + b + c
            )
            ideal = family.build_ideal(params)
            y_beta = HomogeneousPoly.monomial(3, (0, beta, 0))
            for d in range(params.socle_degree + 2):
                colon_dim = colon_slice_dim(ci, y_beta, d)
                ideal_dim = ideal_degree_slice(ideal, d).rank
                assert colon_dim == ideal_dim, (params.as_tuple(), d)


def test_criterion_3_wlp_and_slp_hold(sweep):
    with criterion(3):
        for key, row in sweep["rows"].items():
            assert row.verdict == HOLDS, key
        t0 = perf_counter()
        for params in family.enumerate_params(SLP_A_MAX):
            q = GradedQuotient(
                family.build_ideal(params),
                degree_cap=params.a + params.b + params.c,
            )
            report = q.check_slp()
            assert report.verdict == HOLDS, params.as_tuple()
        slp_seconds = perf_counter() - t0
        assert sweep["wlp_seconds"] + slp_seconds < 600.0


def test_criterion_4_named_uncovered_cases(sweep):
    with criterion(4):
        rows = sweep["rows"]
        named = [(8, 7, 6, 3, 2)]
        for beta in (1, 2, 3):
            for gamma in range(1, 6):
                named.append((7, 7, 6, beta, gamma))
        for key in named:
            if key in rows:
                row = rows[key]
                verdict = row.verdict
            else:  # a = 8 sits outside the sweep window
                row, _, _ = _row_for(family.validate(*key))
                verdict = row.verdict
            assert verdict == HOLDS, key


def test_criterion_5_classifier_soundness(sweep):
    with criterion(5):
        for key, row in sweep["rows"].items():
            if row.covered:
                assert row.verdict == HOLDS, key
        for params in family.enumerate_params(A_MAX):
            report = family.classify(params)
            if report.cor313b:
                assert report.thm37, params.as_tuple()
            if report.cor313a:
                assert (
                    report.thm37 or report.small2 or report.small3
                ), params.as_tuple()


def test_criterion_6_determinant_identity():
    with criterion(6):
        rng = random.Random(SEED)
        for _ in range(1000):
            size = rng.randint(2, 8)
            matrix = family.random_sn(size, 9, rng)
            check = family.sn_det_identity(matrix)
            assert check.equal, matrix
            assert check.positive, matrix


def test_criterion_7_complete_intersections():
    with criterion(7):
        seen = 0
        for a in range(2, 7):
            for c in range(2, a + 1):
                for b in range(2, a + c - 1):
                    lo = max(1, b - a + 1)
                    hi = min(b - 1, c - 1)
                    for gamma in range(lo, hi + 1):
                        q = GradedQuotient(
                            family.build_ci(a, b, c, gamma),
                            degree_cap=a + b + c,
                        )
                        data = q.hilbert_data()
                        series = ci_hilbert(a, b, c)
                        top = a + b + c - 3
                        assert data.socle_degree == top, (a, b, c, gamma)
                        assert list(data.h) == series[: top + 1], (a, b, c, gamma)
                        assert series[top + 1] == 0, (a, b, c)
                        assert data.h == data.h[::-1] and data.h[-1] == 1
                        report = q.check_wlp()
                        assert report.verdict == HOLDS, (a, b, c, gamma)
                        seen += 1
        assert seen > 100


def test_criterion_8_criterion_equivalence(sweep):
    with criterion(8):
        for key, row in sweep["rows"].items():
            assert row.middle_passes == row.fixed_certifies, key
            assert row.residue_all_in == row.middle_passes, key
        # negative control on (3, 3, 2, 2, 1), h = 1 3 3 1: x misses the
        # socle
        params = family.validate(3, 3, 2, 2, 1)
        ideal = family.build_ideal(params)
        q = GradedQuotient(ideal, degree_cap=params.a + params.b + params.c)
        x_form = LinearForm((1, 0, 0))
        ok, _ = q.certify(x_form)
        middle = family.FamilyQuotient(params).certify(x_form)[0]
        reduced = eliminate_linear_form(ideal, x_form, 0)
        assert q.hilbert_data().h == (1, 3, 3, 1)
        k = q.hilbert_data().socle_degree // 2
        residue = all(residue_membership(reduced, k + 1))
        assert ok is False and middle is False and residue is False


def test_criterion_9_semigroups():
    with criterion(9):
        s = NumericalSemigroup([5, 6, 7, 8])
        assert s.apery().elements == (0, 6, 7, 8, 14)
        assert s.is_m_pure_symmetric() == (True, [])
        assert s.order_histogram() == (1, 3, 1)
        assert not NumericalSemigroup([4, 5, 6, 7]).is_m_pure_symmetric()[0]

        rng = random.Random(SEED)
        checked = 0
        while checked < 100:
            gens = [
                rng.randint(2, 60) for _ in range(rng.randint(2, 5))
            ]
            from math import gcd

            if len(set(gens)) < 2 or gcd(*gens) != 1:
                continue
            checked += 1
            s = NumericalSemigroup(gens)
            m = s.multiplicity
            assert m == min(gens)
            ap = s.apery()
            assert len(ap.elements) == m
            bound = m * max(gens)
            sets = length_sets(sorted(set(gens)), bound)
            residues = set()
            for element, order in zip(ap.elements, ap.orders):
                assert sets[element], (gens, element)  # member
                # least in its class: dropping one multiplicity exits P
                below = element - m
                assert below < 0 or not sets[below], (gens, element)
                assert order == max(sets[element]), (gens, element)
                residues.add(element % m)
            assert len(residues) == m
