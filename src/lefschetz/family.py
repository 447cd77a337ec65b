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
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import mul, neg

from . import exactla
from .polyring import HomogeneousPoly, IdealPresentation
from .quotient import GradedQuotient, HilbertData, LinearForm
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


def basis_rows(params: GorensteinParams) -> list:
    """The monomial basis B of the family quotient A = R/I, one y exponent
    at a time: (j, m, n) for each j < b, where x^i y^j z^k lies in B
    exactly when i < m and k < n.

    Lemma.  Under lex y > x > z the generators g1 = x^a,
    g2 = y^b - x^(b-gamma) z^gamma, g3 = z^c, g4 = x^(a-b+gamma) y^(b-beta)
    and g5 = y^(b-beta) z^(c-gamma) of I are a Groebner basis.  Five pairs
    have coprime leading terms (Buchberger's first criterion) and three,
    (g1, g4), (g3, g5) and (g4, g5), are monomials.  The other two
    S-polynomials reduce to 0: S(g2, g4) = x^(a-b+gamma) g2 - y^beta g4 =
    -x^a z^gamma by g1, and S(g2, g5) = z^(c-gamma) g2 - y^beta g5 =
    -x^(b-gamma) z^c by g3.  So the monomials outside the initial ideal,

        B = {x^i y^j z^k : i < a, j < b, k < c, and not (j >= b-beta and
             (i >= a-b+gamma or k >= c-gamma))},

    are a basis of A: row j is i < a, k < c when j < b-beta, and
    i < a-b+gamma, k < c-gamma otherwise.  B_D = {t_0} for
    t_0 = x^(a-1) y^(b-1-beta) z^(c-1) and D = ``params.socle_degree``:
    the rows j >= b-beta stop at degree (a-b+gamma-1) + (b-1) +
    (c-gamma-1) = a+c-3 < D, and the others at D, reached only by t_0.
    """
    a, b, c, beta, gamma = params.as_tuple()
    return [
        (j, a, c) if j < b - beta else (j, a - b + gamma, c - gamma)
        for j in range(b)
    ]


def basis_layer(params: GorensteinParams, degree: int) -> list:
    """B_degree: the monomials of the basis B of :func:`basis_rows` in this
    degree, as exponent tuples in increasing order."""
    return sorted(
        (i, j, degree - i - j)
        for j, m, n in basis_rows(params)
        for i in range(m)
        if 0 <= degree - i - j < n
    )


def hilbert_vector(params: GorensteinParams) -> tuple:
    """The Hilbert values h(0..D) of the family quotient A = R/I, counted
    on the basis B of :func:`basis_rows`.  Row j of B, the x^i y^j z^k with
    i < m and k < n, has generating function t^j (1-t^m)(1-t^n) / (1-t)^2:
    each row adds its four numerator terms to one array, and two running
    sums divide by (1-t)^2.  B has no monomial above degree D."""
    second = [0] * (params.a + params.b + params.c)
    for j, m, n in basis_rows(params):
        second[j] += 1
        second[j + m] -= 1
        second[j + n] -= 1
        second[j + m + n] += 1
    return tuple(accumulate(accumulate(second)))[: params.socle_degree + 1]


def socle_monomials(params: GorensteinParams) -> tuple:
    """The degree-D monomials t_q = x^(a-1-q(b-gamma)) y^((q+1)b-1-beta)
    z^(c-1-q gamma), q >= 0 while every exponent is nonnegative.

    The socle functional phi: R_D -> K, the coefficient on t_0 of the
    normal form NF_I by the Groebner basis of :func:`basis_rows`, is 1 on
    each t_q and 0 on every other degree-D monomial w = x^i y^j z^k.
    Reducing by g2 floor(j/b) times takes w to a monomial w' with y
    exponent below b and NF_I(w') = NF_I(w), and w' = t_0 exactly when w
    is a t_q.  Any other w' lies outside B_D = {t_0}, so one of the
    monomial generators x^a, z^c, g4, g5 divides it and NF_I(w) = 0.
    NF_I is linear and vanishes on I, so phi spans the dual of A_D = K t_0.
    """
    a, b, c, beta, gamma = params.as_tuple()
    return tuple(
        (a - 1 - q * (b - gamma), (q + 1) * b - 1 - beta, c - 1 - q * gamma)
        for q in range(min((a - 1) // (b - gamma), (c - 1) // gamma) + 1)
    )


def pairing_gram(params: GorensteinParams, form: LinearForm, degree: int) -> list:
    """The Gram matrix G[u, v] = φ(ℓ^m·u·v), m = D - 2·degree, of the socle
    pairing over B_degree (:func:`basis_layer`), as dense rows.

    ℓ^m is the sum of m!/(e_x! e_y! e_z!)·ℓ_x^e_x·ℓ_y^e_y·ℓ_z^e_z·x^e over
    |e| = m (the multinomial theorem), and φ is 1 on each t_q of
    :func:`socle_monomials` and 0 on every other degree-D monomial, so
    φ(ℓ^m·w) is that coefficient summed over the t_q with e = t_q - w >= 0.
    It is summed once for each w of degree 2·degree that divides a t_q, and
    the entry of (u, v) reads it at w = u·v.  Over another basis of
    A_degree, such as the standard monomials of a slice, the Gram is QᵀGQ
    with Q invertible: singular exactly when G is, and of the same rank.
    """
    stride = 2 * degree + 1
    m = params.socle_degree - 2 * degree
    fact = list(accumulate(range(1, m + 1), mul, initial=1))
    px, py, pz = (
        list(accumulate(repeat(c, m), mul, initial=1)) for c in form.coefficients
    )
    # φ(ℓ^m·w) for w = x^i y^j z^k at index i·stride + j: w's exponents
    # are below the stride, so the index of u·v is that of u plus that of v
    phi = [0] * stride**2
    for tx, ty, tz in socle_monomials(params):
        for ex in range(min(tx, m) + 1):
            for ey in range(max(0, m - ex - tz), min(ty, m - ex) + 1):
                ez = m - ex - ey
                phi[(tx - ex) * stride + ty - ey] += (
                    fact[m] // (fact[ex] * fact[ey] * fact[ez])
                    * px[ex] * py[ey] * pz[ez]
                )
    keys = [i * stride + j for i, j, _ in basis_layer(params, degree)]
    return [[phi[u + v] for v in keys] for u in keys]


class FamilyQuotient(GradedQuotient):
    """The quotient A = R/I of a family tuple, with the verdict paths that
    its being Artinian Gorenstein licenses.

    A is Artinian Gorenstein: I = (J : y^beta) for the complete
    intersection J of the first three generators, and the quotient of the
    Gorenstein algebra R/J by the annihilator of an element is again
    Gorenstein.  R/J has socle degree a+b+c-3, and the socle degree of
    R/(J : f) is (a+b+c-3) - deg f, which is D = ``params.socle_degree``.

    So h is counted from the basis B of :func:`basis_rows`, and each Gram
    matrix of the socle pairing is read in closed form off B and
    :func:`socle_monomials` (:func:`pairing_gram`), neither building a
    slice; WLP is decided by the middle map and SLP by those Grams
    (:meth:`_pairs`, :meth:`_power_scan`).  The premise-free
    :class:`GradedQuotient` is the reference they are tested against.
    Only these private hooks are overridden; the public verdict methods are
    those of the base class.  The ideal is built when first read; on these
    paths only a slice reads it.
    """

    def __init__(self, params: GorensteinParams):
        # the state of GradedQuotient.__init__, less the ideal
        self.nvars = 3
        self.degree_cap = params.a + params.b + params.c
        self._slices = {}
        self.params = params
        self._hilbert = HilbertData(hilbert_vector(params))

    @cached_property
    def ideal(self) -> IdealPresentation:
        return build_ideal(self.params)

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

    def _power_scan(self, form: LinearForm, pairs) -> tuple:
        """(holds, records) for the square maps ×ℓ^{D-2i}: A_i -> A_{D-i}
        of :meth:`_pairs`, ranked through the socle pairing.

        Let M = ×ℓ^{D-2i} and P: A_{D-i} -> (A_i)^*, P(w)(u) = φ(u·w),
        with φ from :func:`socle_monomials`.  The Gram matrix
        G_i[u, v] = φ(ℓ^{D-2i}·u·v) over the basis B_i of A_i
        (:func:`pairing_gram`) is the matrix of P∘M, so rank G_i <= rank M.
        A nonsingular Gram over any h_i elements of A_i makes them and their
        images independent, so it proves M bijective when
        dim A_i = dim A_{D-i} = h_i, with no further premise.  Under the
        premise P is the perfect pairing of a Gorenstein quotient
        (Maeno-Watanabe, Illinois J. Math. 53 (2009)), an isomorphism, so
        rank G_i = rank M and the records are those of :meth:`_scan`.

        G_i is square and dense, and most are nonsingular (190 of the 194
        that x - y - z gives at a <= 4), so each is tested by
        :func:`exactla.determinant`, which runs faster on dense rows than
        the sparse rank kernel.  A nonzero determinant gives rank h_i; only
        a singular G_i is ranked by :func:`exactla.rank`.  B_i is in
        increasing tuple order, on which ``det_bareiss`` was measured
        faster than on the reverse order.
        """
        ranks = []
        for _, d in pairs:
            gram = pairing_gram(self.params, form, d)
            if exactla.determinant(gram):
                ranks.append(len(gram))
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
