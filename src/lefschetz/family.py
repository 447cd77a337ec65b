"""A five-parameter family of codimension-three Artinian Gorenstein ideals.

Parameters (a, b, c, beta, gamma) pick three complete-intersection exponents,
a twist exponent gamma for the middle binomial generator, and a colon shift
beta.  The full ideal adds two mixed monomials to the complete intersection
(x^a, y^b - x^(b-gamma) z^gamma, z^c); the quotient is Gorenstein with socle
degree a + b + c - beta - 3, and ``FamilyQuotient`` decides its weak and
strong Lefschetz properties by the paths that licenses.  ``classify``
evaluates the closed-form parameter regions with a proved weak Lefschetz
verdict, and the SnMatrix utilities check the positive-determinant identity
for the structured sign matrices that drive those proofs.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import accumulate, islice, repeat
from operator import neg, sub

from . import exactla
from .polyring import (
    HomogeneousPoly,
    IdealPresentation,
    _basis_index,
    monomial_basis,
    multiple_columns,
)
from .quotient import GradedQuotient, HilbertData, LinearForm, _product_columns
from .record import Record


class ParameterError(ValueError):
    """Invalid family parameters."""


class ACOrderError(ParameterError):
    """The first and third exponents must satisfy a >= c >= 2."""


class BetaRangeError(ParameterError):
    """The colon shift must satisfy 1 <= beta <= b - 1."""


class GammaRangeError(ParameterError):
    """The twist must satisfy max(1, b-a+1) <= gamma <= min(b-1, c-1)."""


class NotGorensteinShapeError(ValueError):
    """The Hilbert vector rises past its middle degree, so it is not the
    vector of a codimension-three Gorenstein quotient and the middle-degree
    criterion is void."""


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
    """The quotient A = R/I of a family tuple, with the verdict paths that
    its being Artinian Gorenstein licenses.

    A is Artinian Gorenstein: I = (J : y^beta) for the complete
    intersection J of the first three generators, and the quotient of the
    Gorenstein algebra R/J by the annihilator of an element is again
    Gorenstein.  R/J has socle degree a+b+c-3, and the socle degree of
    R/(J : f) is (a+b+c-3) - deg f, which is D = ``params.socle_degree``.

    So h is counted by :func:`hilbert_vector` and phi read off
    :func:`socle_monomials`, neither building a slice; WLP is decided by
    the middle map and SLP by the socle pairing (:meth:`_pairs`,
    :meth:`_power_scan`).  The premise-free :class:`GradedQuotient` is the
    reference they are tested against.  Only these private hooks are
    overridden; the public verdict methods are those of the base class.
    """

    def __init__(self, params: GorensteinParams):
        GradedQuotient.__init__(
            self, build_ideal(params), degree_cap=params.a + params.b + params.c
        )
        self.params = params
        self._hilbert = HilbertData(hilbert_vector(params))

    def _pairs(self, strong: bool) -> tuple:
        """(criterion, [(power, degree), ...]) as in
        :meth:`GradedQuotient._pairs`, under the Gorenstein premise.

        WLP.  One map decides (``middle``): an Artinian Gorenstein quotient
        has WLP for ℓ exactly when ×ℓ: A_m -> A_{m+1}, m = floor(D/2), is
        surjective (Migliore-Miró-Roig-Nagel, Trans. AMS 363 (2011), §2).
        A record is maximal when its rank is the smaller dimension, which
        means onto only when h(m) >= h(m+1).  Codimension-three Gorenstein
        Hilbert vectors are unimodal (Stanley 1978), so a rise past the
        middle raises :class:`NotGorensteinShapeError`.  The check is
        necessary, not sufficient: ``x^2, x*y, x*z, y^3, y^2*z^2, z^4`` has
        h = (1, 3, 3, 3, 1) and passes the middle test with ``x - y - z``,
        yet x is a degree-one socle element that every form kills, so WLP
        fails.  So the premise rests on the argument of the class
        docstring, not on h.

        SLP.  h is palindromic, as a Gorenstein vector is (Stanley, Adv.
        Math. 28 (1978)), so the square maps ×ℓ^{D-2i}: A_i -> A_{D-i},
        i < (D+1)/2, of the ``narrow`` criterion decide, and the premise
        licenses ranking them through the socle pairing (``pairing``,
        :meth:`_power_scan`), which builds no slice above floor(D/2).
        """
        h = self.hilbert_data().h
        top = len(h) - 1
        if strong:
            return "pairing", [(top - 2 * d, d) for d in range((top + 1) // 2)]
        middle = top // 2
        pairs = [(1, middle)] if middle < top else []
        if pairs and h[middle] < h[middle + 1]:
            raise NotGorensteinShapeError(
                f"Hilbert vector {h} rises past its middle degree {middle}"
            )
        return "middle", pairs

    def _socle_functional(self) -> list:
        """phi: R_D -> K as one value per degree-D basis column: 1 on the
        monomials of :func:`socle_monomials`, 0 elsewhere."""
        index = _basis_index(3, self.params.socle_degree)
        phi = [0] * len(index)
        for t in socle_monomials(self.params):
            phi[index[t]] = 1
        return phi

    def _power_scan(self, form: LinearForm, pairs) -> tuple:
        """(holds, records) for the square maps ×ℓ^{D-2i}: A_i -> A_{D-i}
        of :meth:`_pairs`, ranked through the socle pairing.

        Let M = ×ℓ^{D-2i} and P: A_{D-i} -> (A_i)^*, P(w)(u) = φ(u·w),
        with φ from :meth:`_socle_functional`.  The Gram matrix
        G_i[u, v] = φ(ℓ^{D-2i}·u·v) over the standard monomials u, v of
        A_i is the matrix of P∘M, so rank G_i <= rank M for any quotient:
        a nonsingular G_i proves M bijective even if the premise is false.
        Under the premise P is the perfect pairing of a Gorenstein quotient
        (Maeno-Watanabe, Illinois J. Math. 53 (2009)), an isomorphism, so
        rank G_i = rank M and the records are those of :meth:`_scan`.

        G_i is square and dense, and most are nonsingular (190 of the 194
        that x - y - z gives at a <= 4), so each is built as dense rows and
        tested by :func:`exactla.determinant`, which runs faster on dense
        rows than the sparse rank kernel.  A nonzero determinant gives
        rank h_i; only a singular G_i is ranked by :func:`exactla.rank`.
        G_i lists its basis in increasing tuple order, the reverse of
        :func:`monomial_basis` order.  That is a symmetric permutation
        P·G_i·Pᵀ, with the same determinant and rank, so no record changes;
        ``det_bareiss`` just runs faster on it (why was not measured).

        Φ_j(w) = φ(ℓ^j·w), on the degree-(D-j) basis, follows from
        Φ_j(w) = Σ_v ℓ_v·Φ_{j-1}(w·x_v), one degree at a time, so no power
        of ℓ is expanded and no product is reduced.
        """
        nvars, top = self.ideal.nvars, self.params.socle_degree
        # x_v's coefficient and the degree-one basis are both in variable order
        terms = [
            (c, x) for c, x in zip(form.coefficients, monomial_basis(nvars, 1)) if c
        ]
        phi = self._socle_functional()
        levels = {}
        for j in range(1, max((power for power, _ in pairs), default=0) + 1):
            # the k-th multiple of x_v is x_v times the k-th basis monomial
            parts = [
                [c * phi[k] for k in multiple_columns(x, top - j + 1)]
                for c, x in terms
            ]
            phi = levels[j] = list(map(sum, zip(*parts)))
        h, ranks = self.hilbert_data().h, []
        for power, d in pairs:
            phi, table = levels[power], _product_columns(nvars, d, d)
            # h(d) = dim R_d means I_d = 0, so every column is standard
            full = h[d] == len(monomial_basis(nvars, d))
            std = range(h[d]) if full else self.slice(d).standard_columns
            std = std[::-1]
            gram = [[phi[table[u][v]] for v in std] for u in std]
            if exactla.determinant(gram):
                ranks.append(len(std))
            else:
                ranks.append(exactla.rank(dict(enumerate(row)) for row in gram))
        return self._records(pairs, ranks)


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
