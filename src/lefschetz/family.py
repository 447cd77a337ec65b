"""A five-parameter family of codimension-three Artinian Gorenstein ideals.

Parameters (a, b, c, beta, gamma) pick three complete-intersection exponents,
a twist exponent gamma for the middle binomial generator, and a colon shift
beta.  The full ideal adds two mixed monomials to the complete intersection
(x^a, y^b - x^(b-gamma) z^gamma, z^c); the quotient is Gorenstein with socle
degree a + b + c - beta - 3.  ``classify`` evaluates the closed-form
parameter regions with a proved weak Lefschetz verdict, and the SnMatrix
utilities check the positive-determinant identity for the structured sign
matrices that drive those proofs.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import accumulate, islice, repeat
from operator import neg, sub

from . import exactla
from .polyring import HomogeneousPoly, IdealPresentation, _basis_index
from .quotient import GradedQuotient, HilbertData
from .record import Record


class ParameterError(ValueError):
    """Invalid family parameters."""


class ACOrderError(ParameterError):
    """The first and third exponents must satisfy a >= c >= 2."""


class BetaRangeError(ParameterError):
    """The colon shift must satisfy 1 <= beta <= b - 1."""


class GammaRangeError(ParameterError):
    """The twist must satisfy max(1, b-a+1) <= gamma <= min(b-1, c-1)."""


class GorensteinParams(Record):
    """Family parameters (a, b, c, beta, gamma).

    Equality and the hash are those of :meth:`as_tuple`, which is also the
    sort key.
    """

    __slots__ = ("a", "b", "c", "beta", "gamma")

    @property
    def socle_degree(self) -> int:
        return self.a + self.b + self.c - self.beta - 3

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.beta, self.gamma)


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def _require_ac_order(a: int, c: int) -> None:
    if not a >= c >= 2:
        raise ACOrderError(f"require a >= c >= 2, got a={a}, c={c}")


def _require_gamma_range(a: int, b: int, c: int, gamma: int) -> None:
    lo = max(1, b - a + 1)
    hi = min(b - 1, c - 1)
    if not lo <= gamma <= hi:
        raise GammaRangeError(
            f"require {lo} <= gamma <= {hi} for (a, b, c) = ({a}, {b}, {c}), "
            f"got gamma={gamma}"
        )


def validate(a: int, b: int, c: int, beta: int, gamma: int) -> GorensteinParams:
    """Check the parameter constraints and return a frozen parameter record."""
    _require_positive(a=a, b=b, c=c, beta=beta, gamma=gamma)
    _require_ac_order(a, c)
    if not 1 <= beta <= b - 1:
        raise BetaRangeError(f"require 1 <= beta <= b-1 = {b - 1}, got beta={beta}")
    _require_gamma_range(a, b, c, gamma)
    return GorensteinParams(a, b, c, beta, gamma)


def build_ci(a: int, b: int, c: int, gamma: int) -> IdealPresentation:
    """The complete intersection (x^a, y^b - x^(b-gamma) z^gamma, z^c).

    The parameters pass the same checks as in :func:`validate`, less beta.
    """
    _require_positive(a=a, b=b, c=c, gamma=gamma)
    _require_ac_order(a, c)
    _require_gamma_range(a, b, c, gamma)
    return IdealPresentation(
        3,
        (
            HomogeneousPoly.monomial(3, (a, 0, 0)),
            HomogeneousPoly(3, b, {(0, b, 0): 1, (b - gamma, 0, gamma): -1}),
            HomogeneousPoly.monomial(3, (0, 0, c)),
        ),
    )


def build_ideal(params: GorensteinParams) -> IdealPresentation:
    """The Gorenstein ideal: the complete intersection plus the two mixed
    monomial generators x^(a-b+gamma) y^(b-beta) and y^(b-beta) z^(c-gamma)."""
    p = params
    ci = build_ci(p.a, p.b, p.c, p.gamma)
    return IdealPresentation(
        3,
        ci.generators
        + (
            HomogeneousPoly.monomial(3, (p.a - p.b + p.gamma, p.b - p.beta, 0)),
            HomogeneousPoly.monomial(3, (0, p.b - p.beta, p.c - p.gamma)),
        ),
    )


def socle_monomials(params: GorensteinParams) -> tuple:
    """The degree-D monomials t_q = x^(a-1-q(b-gamma)) y^((q+1)b-1-beta)
    z^(c-1-q gamma), q >= 0 while every exponent is nonnegative.

    The socle functional phi: R_D -> K of the family quotient A = R/I is 1
    on each t_q and 0 on every other degree-D monomial:

    - Under lex y > x > z the generators x^a, y^b - x^(b-gamma) z^gamma and
      z^c of the complete intersection J are a Groebner basis, because
      their leading terms x^a, y^b and z^c are pairwise coprime
      (Buchberger's first criterion).  Replacing y^b by x^(b-gamma)
      z^gamma until the y exponent is below b, and dropping the monomial
      once its x exponent reaches a or its z exponent reaches c, sends a
      monomial to 0 or to one box monomial x^i y^j z^k (i < a, j < b,
      k < c) with coefficient 1, and that is its normal form NF_J.
    - Let phi(f) be the coefficient of NF_J(y^beta f) on the corner
      x^(a-1) y^(b-1) z^(c-1).  Then y^beta x^i y^j z^k reduces to the
      corner exactly when j + beta = (q+1)b - 1, i + q(b-gamma) = a - 1 and
      k + q gamma = c - 1 for some q >= 0, that is, for the monomial t_q.
    - phi vanishes on I_D: NF_J is linear and 0 on J, and y^beta times
      each of the five generators of I lies in J.  It is plain for x^a,
      y^b - x^(b-gamma) z^gamma and z^c; y^beta x^(a-b+gamma) y^(b-beta) is
      x^a z^gamma modulo J, and y^beta y^(b-beta) z^(c-gamma) is
      x^(b-gamma) z^c.
    - phi(t_0) = 1, so phi is nonzero on A_D.

    So phi is a nonzero functional on A_D, with no premise on A.  When A
    is Gorenstein of socle degree D, A_D is one-dimensional and phi spans
    its dual, as the functional read off slice D does.
    """
    a, b, c, beta, gamma = params.as_tuple()
    out = []
    x, z = a - 1, c - 1
    y = b - 1 - beta
    while x >= 0 and z >= 0:
        out.append((x, y, z))
        x, y, z = x - (b - gamma), y + b, z - gamma
    return tuple(out)


def _diagonals(p: int, q: int) -> list:
    """Entry s is #{(i, k) : i + k = s, 0 <= i < p, 0 <= k < q}, for the
    degrees s = 0..p+q-2 where it is positive."""
    return [min(s + 1, p, q, p + q - 1 - s) for s in range(p + q - 1)]


def _y_windows(xz: list, width: int) -> list:
    """Entry s is xz[s] + xz[s-1] + ... + xz[s-width+1], entries below 0
    counting 0: the number of degree-s monomials x^i y^j z^k with
    j < width whose x, z part is one of the xz[s-j] of degree s - j."""
    sums = list(accumulate(xz))
    return list(map(sub, sums, [0] * width + sums[: len(sums) - width]))


def _hilbert_terms(params: GorensteinParams) -> tuple:
    """(dims of R/J, dims of R/(J + y^beta)) in degrees 0..a+b+c-3: the sums
    over j < b of ac(s-j) = #{i < a, k < c, i + k = s-j}, and over j < beta
    of N(s-j), ac less the corner count; see :func:`hilbert_vector`."""
    a, b, c, beta, gamma = params.as_tuple()
    ac = _diagonals(a, c) + [0] * (b - 1)
    # the x^i z^k with i >= b-gamma and k >= gamma: x^(b-gamma) z^gamma
    # times a box of sides a-b+gamma and c-gamma
    corner = [0] * b + _diagonals(a - b + gamma, c - gamma) + [0] * (b - 1)
    return _y_windows(ac, b), _y_windows(list(map(sub, ac, corner)), beta)


def hilbert_vector(params: GorensteinParams) -> tuple:
    """The Hilbert values h(0..D) of the family quotient A = R/I, counted.

    Let J = (x^a, y^b - x^(b-gamma) z^gamma, z^c), so that I = J : y^beta
    and multiplication by y^beta gives the exact sequence
    0 -> A(-beta) -> R/J -> R/(J + y^beta) -> 0.  As beta < b, y^b lies in
    (y^beta), so J + (y^beta) = (x^a, z^c, y^beta, x^(b-gamma) z^gamma) is
    monomial.  The leading terms x^a, y^b and z^c of J are pairwise coprime
    under lex y > x > z, so R/J has the box basis x^i y^j z^k, i < a,
    j < b, k < c, of the complete intersection.  Hence

        h(d) = #box(a, b, c)_(d+beta) - sum_(j < beta) N(d + beta - j),

    where N(s) counts the pairs (i, k) with i + k = s, i < a, k < c and not
    both i >= b-gamma and k >= gamma.  Each term is a window sum, over the
    y exponent j, of such interval counts (:func:`_hilbert_terms`).
    """
    box, monomial = _hilbert_terms(params)
    beta = params.beta
    return tuple(map(sub, box[beta:], monomial[beta:]))


class FamilyQuotient(GradedQuotient):
    """The quotient R/I of a family tuple, stated Gorenstein with socle
    degree ``params.socle_degree``, with h from :func:`hilbert_vector` and
    phi from :func:`socle_monomials`, so that neither builds a slice."""

    def __init__(self, params: GorensteinParams):
        GradedQuotient.__init__(
            self,
            build_ideal(params),
            degree_cap=params.a + params.b + params.c,
            socle_degree=params.socle_degree,
        )
        self.params = params
        self._hilbert = HilbertData(hilbert_vector(params))

    def hilbert_data(self) -> HilbertData:
        return self._hilbert

    def _socle_functional(self) -> list:
        index = _basis_index(3, self.socle_degree)
        phi = [0] * len(index)
        for t in socle_monomials(self.params):
            phi[index[t]] = 1
        return phi


_FLAG_NAMES = (
    "thm37",
    "thm38",
    "cor313a",
    "cor313b",
    "small2",
    "small3",
    "small4",
    "small5",
)


class CoverageReport(Record):
    """Which closed-form parameter regions contain the tuple.

    Each flag is an independent arithmetic predicate; ``covered`` is their
    disjunction.  Tuples outside every region have no proved verdict and are
    the interesting ones to sweep.
    """

    __slots__ = _FLAG_NAMES

    @property
    def covered(self) -> bool:
        return any(getattr(self, name) for name in _FLAG_NAMES)

    def flags(self) -> dict:
        return {name: getattr(self, name) for name in _FLAG_NAMES}

    def true_flags(self) -> tuple:
        return tuple(name for name in _FLAG_NAMES if getattr(self, name))


def classify(params: GorensteinParams) -> CoverageReport:
    a, b, c, beta, gamma = params.as_tuple()
    thm37 = (
        max(1, b + c - a - 1) <= beta <= b - 1
        and gamma >= (beta - a + b + c - 2) // 2
    )
    thm38 = a <= 2 * b - c and abs(a - b) + c - 1 <= beta <= b - 1
    cor313a = a >= 2 * b + c - 6
    cor313b = a >= b + c - 2 and 1 <= beta <= a - b - c + 5
    return CoverageReport(
        thm37=thm37,
        thm38=thm38,
        cor313a=cor313a,
        cor313b=cor313b,
        small2=2 in (a, b, c),
        small3=3 in (a, b, c),
        small4=4 in (a, b, c),
        small5=5 in (a, b, c),
    )


def enumerate_params(a_max: int, a_min: int = 2) -> Iterator[GorensteinParams]:
    """All valid parameter tuples with a in [a_min, a_max], in lexicographic
    order on (a, b, c, beta, gamma).

    The twist range forces b <= a + c - 2, so b is bounded by 2a - 2.
    """
    for a in range(max(a_min, 2), a_max + 1):
        for b in range(2, 2 * a - 1):
            for c in range(max(2, b - a + 2), a + 1):
                lo = max(1, b - a + 1)
                hi = min(b - 1, c - 1)
                for beta in range(1, b):
                    for gamma in range(lo, hi + 1):
                        yield GorensteinParams(a, b, c, beta, gamma)


def uncovered_params(a_max: int, a_min: int = 2) -> Iterator[GorensteinParams]:
    """The sweep-priority tuples: valid parameters no region covers."""
    for params in enumerate_params(a_max, a_min):
        if not classify(params).covered:
            yield params


class SnMatrix(Record):
    """Unit upper-triangular rows over a nonnegative bottom row.

    Row i (of n-1) has 1 on the diagonal and nonpositive entries above it,
    stored here as the nonnegative magnitudes ``upper[i]``; the bottom row is
    nonnegative with a positive last entry.  The determinant of such a matrix
    is always positive and obeys a closed-form accumulation identity.
    """

    __slots__ = ("size", "upper", "last_row")

    def __init__(self, size: int, upper, last_row):
        upper = tuple(tuple(row) for row in upper)
        last_row = tuple(last_row)
        if size < 2:
            raise ValueError("size must be at least 2")
        if len(upper) != size - 1:
            raise ValueError(f"expected {size - 1} upper rows, got {len(upper)}")
        for i, row in enumerate(upper):
            if len(row) != size - 1 - i:
                raise ValueError(
                    f"upper row {i} must have {size - 1 - i} entries"
                )
            if min(row) < 0:
                raise ValueError("upper magnitudes must be nonnegative")
        if len(last_row) != size:
            raise ValueError(f"last row must have {size} entries")
        if min(last_row) < 0:
            raise ValueError("last row must be nonnegative")
        if last_row[-1] <= 0:
            raise ValueError("last row must end with a positive entry")
        Record.__init__(self, size, upper, last_row)

    def rows(self) -> list:
        """The matrix as dense integer rows, the form
        :func:`exactla.determinant` reads."""
        out = [[0] * i + [1, *map(neg, upper)] for i, upper in enumerate(self.upper)]
        out.append(list(self.last_row))
        return out


class SnCheck(Record):
    __slots__ = ("det", "alpha_last", "equal", "positive")


def sn_alpha(matrix: SnMatrix) -> tuple:
    """The accumulation sequence: alpha_j adds the bottom entry to the
    upper-magnitude-weighted sum of all earlier alphas.

    Each alpha_i is final once every earlier row has pushed into it, and is
    then pushed forward along upper row i.
    """
    alpha = list(matrix.last_row)
    for i, row in enumerate(matrix.upper):
        a = alpha[i]
        for j, magnitude in enumerate(row, i + 1):
            alpha[j] += a * magnitude
    return tuple(alpha)


def sn_det_identity(matrix: SnMatrix) -> SnCheck:
    """Compare the exact determinant against the accumulation value."""
    det = exactla.determinant(matrix.rows())
    alpha_last = sn_alpha(matrix)[-1]
    return SnCheck(det, alpha_last, det == alpha_last, det > 0)


def random_sn(size: int, max_entry: int, seed) -> SnMatrix:
    """Uniformly random instance; ``seed`` may be an int, a string, or a
    ``random.Random`` to draw from."""
    if size < 2:
        raise ValueError("size must be at least 2")
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    # randint(0, k - 1) is randrange(k), which draws getrandbits(k's bit
    # length) until a value falls below k; the stream does the same without
    # the per-call overhead, and islice pulls from it only the draws it
    # keeps, so it never draws ahead.  1 + randrange(k) is randint(1, k).
    below = max_entry + 1
    stream = filter(below.__gt__, map(rng.getrandbits, repeat(below.bit_length())))
    upper = tuple(tuple(islice(stream, size - 1 - i)) for i in range(size - 1))
    last = list(islice(stream, size - 1))
    last.append(1 + rng.randrange(max_entry))
    return SnMatrix(size, upper, tuple(last))
