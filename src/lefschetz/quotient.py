"""Graded Artinian quotient analysis.

A :class:`GradedQuotient` wraps an ideal presentation with a degree cap and
caches one echelonized slice per degree.  Everything downstream is a rank
computation: Hilbert function values, multiplication-by-linear-form matrices
between standard-monomial bases, and the weak/strong Lefschetz verdicts.
All arithmetic is exact; a verdict of ``FAILS_PROBABLY`` only ever means
that every tried linear form failed, never that anything was approximated.
"""

from __future__ import annotations

import functools
import random
from itertools import product

from . import exactla
from .exactla import _coerce
from .polyring import (
    HomogeneousPoly,
    IdealPresentation,
    ideal_degree_slice,
    mono_str,
    monomial_basis,
    multiple_columns,
)
from .record import Record

HOLDS = "HOLDS"
FAILS_PROBABLY = "FAILS_PROBABLY"


class NotArtinianWithinCapError(ValueError):
    """The Hilbert function stayed positive through the degree cap."""


class CapExceededError(ValueError):
    """A slice beyond the configured degree cap was requested."""


class LinearForm(Record):
    """A nonzero linear form, stored as one coefficient per variable."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(map(_coerce, coefficients))
        if not coeffs or not any(coeffs):
            raise ValueError("linear form must be nonzero")
        Record.__init__(self, coeffs)

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    def to_poly(self) -> HomogeneousPoly:
        n = self.nvars
        return HomogeneousPoly(
            n,
            1,
            {
                tuple(1 if j == i else 0 for j in range(n)): c
                for i, c in enumerate(self.coefficients)
                if c
            },
        )

    def as_text(self, names: tuple = None) -> str:
        return _form_text(self.coefficients, names)

    def __str__(self) -> str:
        return self.as_text()


@functools.lru_cache(maxsize=64)
def _form_text(coefficients: tuple, names: tuple) -> str:
    """Text of the linear form with these coefficients.  A sweep prints the
    fixed candidate on most records, so it is rendered once per process."""
    return LinearForm(coefficients).to_poly().as_text(names)


@functools.lru_cache(maxsize=None)
def fixed_candidate(nvars: int) -> LinearForm:
    """The deterministic first candidate: first variable minus the others.
    One record per variable count, shared: records are immutable."""
    return LinearForm((1,) + (-1,) * (nvars - 1))


class SearchStrategy(Record):
    """Random search settings for certificate hunting.

    ``trials`` random forms are tried after the fixed candidate; coefficients
    are drawn uniformly from the nonzero integers of magnitude at most
    ``bound``.  ``seed`` may be an int or a string and fully determines the
    draw sequence.
    """

    __slots__ = ("trials", "bound", "seed")

    def __init__(self, trials: int = 8, bound: int = 10_000, seed: object = 0):
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if bound < 1:
            raise ValueError("bound must be at least 1")
        Record.__init__(self, trials, bound, seed)


class HilbertData(Record):
    """Hilbert function values h(0..socle_degree); the next value is zero."""

    __slots__ = ("h",)

    @property
    def socle_degree(self) -> int:
        return len(self.h) - 1


class MapRank(Record):
    """Rank of multiplication by a power of a form, A_degree -> A_{degree+power}."""

    __slots__ = ("degree", "power", "dim_from", "dim_to", "rank", "maximal")


class LefschetzReport(Record, compare=("verdict", "certificate_form", "per_map")):
    """Verdict of a WLP or SLP search, with the records of the last form tried.

    ``strategy`` is left out of equality and the hash.
    """

    __slots__ = ("verdict", "certificate_form", "per_map", "strategy")


def _random_form(rng: random.Random, nvars: int, bound: int) -> LinearForm:
    coeffs = []
    for _ in range(nvars):
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        coeffs.append(c)
    return LinearForm(coeffs)


@functools.lru_cache(maxsize=64)
def _form_power(coefficients: tuple, power: int) -> HomogeneousPoly:
    """The ``power``-th power of the linear form with these coefficients.

    Shared by every quotient in the process.  Family verdicts ask only for
    power 1; the SLP scan of :class:`GradedQuotient` asks for a whole chain
    (at most 25 powers for a <= 7), which sixty-four entries hold with the
    random forms of a search.  Callers only read the result.
    """
    linear = LinearForm(coefficients).to_poly()
    if power == 1:
        return linear
    return _form_power(coefficients, power - 1) * linear


def _value_at(poly: HomogeneousPoly, point: tuple):
    """The value of ``poly`` at ``point``: the sum over its terms of the
    coefficient times the product of point[i] ** exponent[i], with 0 ** 0 = 1."""
    total = 0
    for mono, coeff in poly.terms.items():
        for value, exp in zip(point, mono):
            coeff *= value**exp
        total += coeff
    return total


class GradedQuotient:
    """Quotient of a polynomial ring by a homogeneous ideal, studied degree
    by degree up to a cap.

    The default cap is the sum of the generator degrees, a safe ceiling for
    complete-intersection-like inputs; pass ``degree_cap`` explicitly for
    anything exotic.  Slices are cached, so repeated Hilbert or rank queries
    echelonize each degree once.

    It states no premise about the ideal, so it is the reference scan that
    :class:`lefschetz.family.FamilyQuotient` and its closed forms are
    tested against.  WLP and SLP share one search: :meth:`_pairs` chooses
    the maps and names the criterion (``narrow`` or ``full``), the hook
    :meth:`_power_scan` for SLP and :meth:`_scan` for WLP rank them into
    :class:`MapRank` records, and :meth:`_search` returns a
    :class:`LefschetzReport`.  A subclass that knows more about its
    quotient overrides :meth:`_pairs` and :meth:`_power_scan`.
    """

    def __init__(self, ideal: IdealPresentation, degree_cap: int | None = None):
        if degree_cap is None:
            degree_cap = sum(g.degree for g in ideal.generators)
        if degree_cap < 1:
            raise ValueError("degree cap must be positive")
        self.ideal = ideal
        self.nvars = ideal.nvars
        self.degree_cap = degree_cap
        self._slices = {}
        self._hilbert = None

    def slice(self, degree: int):
        """The degree-``degree`` slice, built once per quotient."""
        if degree > self.degree_cap:
            raise CapExceededError(
                f"degree {degree} exceeds the cap {self.degree_cap}"
            )
        sl = self._slices.get(degree)
        if sl is None:
            sl = self._slices[degree] = ideal_degree_slice(self.ideal, degree)
        return sl

    def hilbert(self, degree: int) -> int:
        """dim of the degree-``degree`` graded piece of the quotient."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return len(self.slice(degree).standard_monomials)

    def hilbert_data(self) -> HilbertData:
        """Hilbert values through the socle degree.

        Slices are built one degree at a time, from degree 0 up.
        Raises :class:`NotArtinianWithinCapError` when no zero value appears
        by the cap; once a graded piece vanishes every later one does, so the
        first zero ends the scan.  It raises before building any slice when
        some variable has no pure power among the generators' terms, when
        there are fewer generators than variables, or, in at most three
        variables, when every generator vanishes at a point with coordinates
        in {-1, 0, 1}, tried first on {0,1}^n.
        """
        if self._hilbert is None:
            self._hilbert = self._scan_hilbert()
        return self._hilbert

    def _scan_hilbert(self) -> HilbertData:
        # If no generator has a nonzero x_j^deg term, every generator
        # vanishes at the coordinate point e_j, so R/I maps onto K[x_j] and
        # h(d) >= 1 in every degree: no scan can reach a zero.
        nvars, gens = self.nvars, self.ideal.generators
        for j in range(nvars):
            unit = tuple(int(i == j) for i in range(nvars))
            if not any(
                g.terms.get(tuple(g.degree * e for e in unit)) for g in gens
            ):
                raise NotArtinianWithinCapError(
                    f"Hilbert function still positive at the cap "
                    f"{self.degree_cap}: no generator has a pure power of "
                    f"{mono_str(unit)}, so h(d) >= 1 in every degree"
                )
        # Krull's height theorem: r generators leave a quotient of dimension
        # at least nvars - r.
        if len(gens) < nvars:
            raise NotArtinianWithinCapError(
                f"Hilbert function still positive at the cap "
                f"{self.degree_cap}: {len(gens)} generator(s) in {nvars} "
                f"variables leave a quotient of positive dimension"
            )
        # If every generator vanishes at a point p, then I lies in the ideal
        # I(p) of the line through p, so R/I maps onto R/I(p) = K[t] and
        # h(d) >= 1 in every degree.  The points tried have coordinates in
        # {-1, 0, 1}, first those in {0,1}^n; a generator g is homogeneous,
        # so g(-p) = +-g(p) and only points whose first nonzero coordinate
        # is 1 are tried.  A monomial ideal is Artinian exactly when the
        # pure-power check above passes, so only ideals with a wider
        # generator are tested, such as (x^2 - y^2, x*y - y^2, z^2), which
        # vanishes at (1, 1, 0), and only in at most three variables, where
        # there are at most thirteen points.
        # Other non-Artinian ideals are only found by the scan below.
        if nvars <= 3 and any(len(g.terms) > 1 for g in gens):
            signs = product((0, 1, -1), repeat=nvars)
            points = sorted(
                (p for p in signs if next(filter(None, p), 0) == 1),
                key=lambda p: -1 in p,
            )
            for p in points:
                if not any(_value_at(g, p) for g in gens):
                    raise NotArtinianWithinCapError(
                        f"Hilbert function still positive at the cap "
                        f"{self.degree_cap}: every generator vanishes at the "
                        f"point {p}, so h(d) >= 1 in every degree"
                    )
        values = []
        for d in range(self.degree_cap + 1):
            h = self.hilbert(d)
            if h == 0:
                return HilbertData(tuple(values))
            values.append(h)
        raise NotArtinianWithinCapError(
            f"Hilbert function still positive at the cap {self.degree_cap}"
        )

    def multiplication_matrix(
        self, form: LinearForm, degree: int, power: int = 1
    ) -> tuple:
        """Matrix of multiplication by ``form**power`` from the degree-d
        standard-monomial basis to the degree-(d+power) one, as its rows.

        There is one sparse ``{column: value}`` row per target standard
        monomial, h(d+power) in all with empty rows kept, and column j is
        the j-th source standard monomial, so every column is below h(d).
        """
        if degree < 0 or power < 1:
            raise ValueError("need degree >= 0 and power >= 1")
        self._check_form(form)
        if degree + power > self.degree_cap:
            raise CapExceededError(
                f"degree {degree + power} exceeds the cap {self.degree_cap}"
            )
        return _multiply_into(
            self.slice(degree).standard_columns,
            degree,
            _form_power(form.coefficients, power),
            self.slice(degree + power),
        )

    def _pairs(self, strong: bool) -> tuple:
        """(criterion, [(power, degree), ...]): the maps ×ℓ^power:
        A_degree -> A_{degree+power} whose ranks decide WLP, or SLP when
        ``strong``, for one form ℓ.

        WLP scans every ×ℓ: A_d -> A_{d+1} (``full``).

        SLP.  A palindromic Hilbert vector (h_i = h_{D-i}) needs only the
        square maps ×ℓ^{D-2i}: A_i -> A_{D-i} for i < (D+1)/2 (``narrow``).
        Form by form, they are all bijective exactly when every
        ×ℓ^k: A_i -> A_{i+k} has maximal rank:

        - narrow => full.  If i+k <= D-i, then ℓ^{D-2i} = ℓ^{D-2i-k}·ℓ^k is
          injective on A_i, so ×ℓ^k is too.  Otherwise let j = i+k, so
          D-j < i < j; then ℓ^{2j-D} = ℓ^k·ℓ^{i-(D-j)} maps A_{D-j} onto
          A_j, so ×ℓ^k: A_i -> A_j is surjective.
        - full => narrow.  The square maps are among the full scan's pairs,
          and a map of maximal rank between pieces of equal dimension is
          bijective.

        Any other Hilbert vector scans every power and compatible degree
        (``full``).  So the fixed-then-random search visits the same forms
        and returns the same verdict and certificate as the full scan.
        """
        data = self.hilbert_data()
        h, top = data.h, data.socle_degree
        if not strong:
            return "full", [(1, d) for d in range(top)]
        if h == h[::-1]:
            return "narrow", [(top - 2 * d, d) for d in range((top + 1) // 2)]
        return "full", [
            (p, d) for p in range(1, top + 1) for d in range(top - p + 1)
        ]

    def _records(self, pairs, ranks) -> tuple:
        """(holds, records): one :class:`MapRank` per (power, degree) pair
        and its rank, maximal when the rank is the smaller of the two
        dimensions."""
        h = self.hilbert_data().h
        per = []
        for (power, d), r in zip(pairs, ranks):
            dim_from, dim_to = h[d], h[d + power]
            per.append(
                MapRank(d, power, dim_from, dim_to, r, r == min(dim_from, dim_to))
            )
        return all(rec.maximal for rec in per), tuple(per)

    def _scan(self, form: LinearForm, pairs) -> tuple:
        """(holds, records) with each map ranked by its multiplication
        matrix."""
        return self._records(
            pairs,
            (
                exactla.rank(self.multiplication_matrix(form, d, power))
                for power, d in pairs
            ),
        )

    _power_scan = _scan

    def _check_form(self, form: LinearForm) -> None:
        if form.nvars != self.nvars:
            raise ValueError("form variable count mismatch")

    def certify(self, form: LinearForm) -> tuple:
        """WLP test of one form over the maps of :meth:`_pairs`."""
        self._check_form(form)
        return self._scan(form, self._pairs(strong=False)[1])

    def certify_powers(self, form: LinearForm) -> tuple:
        """SLP test of one form over the maps of :meth:`_pairs`, ranked by
        :meth:`_power_scan`."""
        self._check_form(form)
        return self._power_scan(form, self._pairs(strong=True)[1])

    def _search(self, strong: bool, strategy: SearchStrategy | None):
        """Try the fixed candidate, then ``strategy.trials`` random forms.

        ``HOLDS`` carries the certificate and its records; ``FAILS_PROBABLY``
        reports the last random trial's records.  ``strategy`` names the
        criterion of :meth:`_pairs`.
        """
        scan = self.certify_powers if strong else self.certify
        strategy = strategy or SearchStrategy()
        meta = {
            "trials": strategy.trials,
            "bound": strategy.bound,
            "seed": strategy.seed,
            "criterion": self._pairs(strong)[0],
        }
        fixed = fixed_candidate(self.nvars)
        ok, per = scan(fixed)
        if ok:
            meta.update(certificate="fixed", random_trials_used=0)
            return LefschetzReport(HOLDS, fixed, per, meta)
        rng = random.Random(strategy.seed)
        for t in range(strategy.trials):
            form = _random_form(rng, self.nvars, strategy.bound)
            ok, per = scan(form)
            if ok:
                meta.update(certificate="random", random_trials_used=t + 1)
                return LefschetzReport(HOLDS, form, per, meta)
        meta.update(certificate=None, random_trials_used=strategy.trials)
        return LefschetzReport(FAILS_PROBABLY, None, per, meta)

    def check_wlp(self, strategy: SearchStrategy | None = None) -> LefschetzReport:
        """Hunt for a linear form with the weak Lefschetz property."""
        return self._search(False, strategy)

    def check_slp(self, strategy: SearchStrategy | None = None) -> LefschetzReport:
        """Hunt for a linear form with the strong Lefschetz property."""
        return self._search(True, strategy)

    def check_wlp_and_slp(self, strategy: SearchStrategy | None = None) -> tuple:
        """(wlp, slp): the verdicts and certificates of :meth:`check_wlp`
        and :meth:`check_slp`, with no WLP scan when the fixed candidate
        certifies SLP.

        A form with SLP has WLP (Harima-Migliore-Nagel-Watanabe, J. Algebra
        262 (2003)).  When the SLP search holds by the fixed form, that form
        has WLP for every criterion of :meth:`_pairs`:

        - under ``pairing`` each map's record is maximal only when its Gram
          matrix is nonsingular, which makes the square map bijective with
          no premise (see ``FamilyQuotient._power_scan``), so the square
          maps of ``narrow`` hold;
        - ``narrow => full`` (:meth:`_pairs`) then makes every map
          ×ℓ^k: A_d -> A_{d+k} maximal, as a ``full`` SLP search checks
          directly; the maps ×ℓ: A_d -> A_{d+1} among them include those of
          every WLP criterion (``full`` and ``middle``);
        - :meth:`_search` tries the fixed form first, so :meth:`check_wlp`
          would hold by it too, with the same verdict and certificate.

        The WLP report is then ``HOLDS`` with the fixed form, the SLP
        records that prove it and criterion ``slp``.  Not using another
        criterion, it never reaches a criterion's own checks, such as the
        unimodality guard of ``middle``.  Otherwise the WLP report is that
        of :meth:`check_wlp`.  The two searches draw from separate
        ``random.Random(seed)`` streams, so their order changes no record.
        """
        slp = self.check_slp(strategy)
        if slp.verdict == HOLDS and slp.strategy["certificate"] == "fixed":
            meta = dict(slp.strategy, criterion="slp")
            wlp = LefschetzReport(HOLDS, slp.certificate_form, slp.per_map, meta)
            return wlp, slp
        return self.check_wlp(strategy), slp


@functools.lru_cache(maxsize=None)
def _product_columns(nvars: int, degree: int, power: int) -> tuple:
    """Product columns: entry s holds, for the s-th degree-``degree`` basis
    monomial, the degree-(degree+power) basis columns of its products with
    every degree-``power`` basis monomial, in basis order.

    Graded lex is a monomial order, so multiplying by t keeps it: the k-th
    multiple of t in column order (:func:`multiple_columns`) is t times the
    k-th degree-``degree`` basis monomial.  The multiple columns of each
    degree-``power`` monomial t are thus the table's columns, and their
    transpose is the table.  It depends only on (nvars, degree, power), not
    on an ideal or a form, so every quotient of a process shares it.
    Callers only read the result.
    """
    return tuple(
        zip(
            *(
                multiple_columns(t, degree + power)
                for t in monomial_basis(nvars, power)
            )
        )
    )


def _multiply_into(
    source_columns, degree: int, poly: HomogeneousPoly, target
) -> tuple:
    """Multiply-then-reduce, as a tuple of sparse rows: column j is the
    residue of ``poly`` times the degree-``degree`` basis monomial at column
    ``source_columns[j]``, modulo the slice ``target`` of degree
    ``degree + poly.degree``, on one row per standard column of ``target``.

    Each product vector pairs the source's row of :func:`_product_columns`
    with ``poly``'s coefficients on its degree basis, 0 for absent terms;
    :meth:`DegreeSlice.residue` drops the zeros.
    """
    nvars, power = poly.nvars, poly.degree
    table = _product_columns(nvars, degree, power)
    terms = poly.terms
    coeffs = [terms.get(u, 0) for u in monomial_basis(nvars, power)]
    rows = {col: {} for col in target.standard_columns}  # in row order
    for j, s in enumerate(source_columns):
        rem = target.residue(dict(zip(table[s], coeffs)))
        for col, value in rem.items():
            rows[col][j] = value
    return tuple(rows.values())
