"""Independent recomputations used to cross-check the package.

Everything here is deliberately naive: generating-function coefficient
arrays, cofactor and Gaussian-elimination determinants, plain dense
Gauss-Jordan elimination, and exhaustive monomial counting.  None of it
shares code with the package under test.
"""

from fractions import Fraction
from itertools import product


def ci_hilbert(a: int, b: int, c: int) -> list:
    """Coefficients of (1-t^a)(1-t^b)(1-t^c)/(1-t)^3, indices 0..a+b+c."""
    n = a + b + c
    coeffs = [0] * (n + 1)
    for signs, exps in (
        ((1,), (0,)),
        ((-1, -1, -1), (a, b, c)),
        ((1, 1, 1), (a + b, a + c, b + c)),
        ((-1,), (n,)),
    ):
        for s, e in zip(signs, exps):
            coeffs[e] += s
    for _ in range(3):  # divide by (1-t) three times
        total = 0
        for i in range(n + 1):
            total += coeffs[i]
            coeffs[i] = total
    return coeffs


def laplace_det(rows) -> Fraction:
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * laplace_det(minor)
    return total


def gauss_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals with row
    swaps: the signed product of the pivots."""
    work = [[Fraction(v) for v in row] for row in rows]
    n = len(work)
    assert all(len(r) == n for r in work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        p = work[col][col]
        det *= p
        for i in range(col + 1, n):
            f = work[i][col] / p
            if f:
                work[i] = [v - f * w for v, w in zip(work[i], work[col])]
    return det


def naive_rref(rows) -> list:
    """Textbook Gauss-Jordan elimination over the rationals: the nonzero
    rows of the reduced row echelon form, each with leading entry 1."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return []
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [v - f * p for v, p in zip(work[i], work[rank])]
        rank += 1
    return work[:rank]


def naive_rank(rows) -> int:
    return len(naive_rref(rows))


def length_sets(generators, upto: int) -> list:
    """For each t <= upto, the set of factorization lengths over the generators.

    Empty set means t is not in the semigroup.  Tracks complete length sets,
    not just the maximum, so it exercises a different recurrence than any
    single-value dynamic program.
    """
    sets = [set() for _ in range(upto + 1)]
    sets[0].add(0)
    for t in range(1, upto + 1):
        for g in generators:
            if g <= t:
                sets[t].update(k + 1 for k in sets[t - g])
    return sets


def monomial_quotient_dims(generator_expts, nvars: int, dmax: int) -> list:
    """dim of each graded piece of R modulo a monomial ideal, by counting."""
    dims = []
    for d in range(dmax + 1):
        count = 0
        for expts in _compositions(d, nvars):
            if not any(
                all(e >= g for e, g in zip(expts, gen))
                for gen in generator_expts
            ):
                count += 1
        dims.append(count)
    return dims


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def monomial_ci_mult_rank(box, coeffs, degree: int, power: int = 1) -> int:
    """Rank of multiplication by (sum coeffs[i]*var_i)^power on R/(x^a,y^b,z^c).

    The quotient basis is the box of exponent vectors below (a, b, c), so
    reduction just discards anything that sticks out of the box.
    """
    source = [e for e in _box_monomials(box) if sum(e) == degree]
    target = [e for e in _box_monomials(box) if sum(e) == degree + power]
    index = {e: i for i, e in enumerate(target)}
    rows = []
    for mono in source:
        element = {mono: Fraction(1)}
        for _ in range(power):
            nxt = {}
            for e, coeff in element.items():
                for var, cv in enumerate(coeffs):
                    if not cv:
                        continue
                    bumped = list(e)
                    bumped[var] += 1
                    if bumped[var] >= box[var]:
                        continue  # exponents only grow, safe to drop now
                    key = tuple(bumped)
                    nxt[key] = nxt.get(key, Fraction(0)) + coeff * cv
            element = nxt
        row = [Fraction(0)] * len(target)
        for e, coeff in element.items():
            row[index[e]] = coeff
        rows.append(row)
    if not rows or not target:
        return 0
    return naive_rank(rows)


def _box_monomials(box):
    return product(*(range(limit) for limit in box))
