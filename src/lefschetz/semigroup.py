"""Numerical semigroup reports.

A numerical semigroup here is the set of nonnegative integer combinations of
coprime positive generators.  The module computes membership, the set of
least members per residue class modulo the smallest generator, maximal
factorization lengths (orders), and the paired sum/order symmetry test on
that least-member set.
"""

from __future__ import annotations

from math import gcd

from .record import Record


class NotInSemigroupError(ValueError):
    """An order was requested for a non-member."""


class AperySet(Record):
    """Least members per residue class modulo the smallest generator,
    sorted ascending, with their maximal factorization orders."""

    __slots__ = ("modulus", "elements", "orders")


class NumericalSemigroup:
    """Submonoid of the nonnegative integers with coprime generators.

    Membership and order tables grow on demand and are shared across
    queries; every value is exact.  Searches are bounded by the smallest
    generator times the largest, which is past the largest least member any
    residue class can have.
    """

    __slots__ = ("generators", "_member", "_order", "_apery")

    def __init__(self, generators):
        gens = sorted({int(g) for g in generators})
        if len(gens) < 2:
            raise ValueError("need at least two distinct generators")
        if gens[0] < 1:
            raise ValueError("generators must be positive")
        if gcd(*gens) != 1:
            raise ValueError(f"generators {gens} have gcd {gcd(*gens)}")
        self.generators = tuple(gens)
        self._member = [True]
        self._order = [0]
        self._apery = None

    @property
    def multiplicity(self) -> int:
        """The smallest generator; also the number of residue classes."""
        return self.generators[0]

    def _grow(self, upto: int):
        member = self._member
        order = self._order
        gens = self.generators
        for t in range(len(member), upto + 1):
            best = -1
            for g in gens:
                if g > t:
                    break
                prev = order[t - g]
                if prev >= 0 and prev > best:
                    best = prev
            member.append(best >= 0)
            order.append(best + 1 if best >= 0 else -1)

    def membership(self, x: int) -> bool:
        """Whether ``x`` is a nonnegative integer combination of the
        generators."""
        if x < 0:
            return False
        if x >= len(self._member):
            self._grow(x)
        return self._member[x]

    def __contains__(self, x: int) -> bool:
        return self.membership(x)

    def order(self, x: int) -> int:
        """Largest number of generators (with repetition) summing to ``x``."""
        if not self.membership(x):
            raise NotInSemigroupError(f"{x} is not in the semigroup")
        return self._order[x]

    def apery(self) -> AperySet:
        """Least member of each residue class modulo the smallest generator.

        The search is asserted to stay below multiplicity * max(generators):
        a least member has a representation avoiding the smallest generator,
        and longer representations would repeat a residue.
        """
        if self._apery is None:
            m = self.multiplicity
            bound = m * self.generators[-1]
            found = {}
            t = 0
            while len(found) < m:
                assert t <= bound, (
                    "least residue members must appear by "
                    "multiplicity * max(generators)"
                )
                if self.membership(t):
                    r = t % m
                    if r not in found:
                        found[r] = t
                t += 1
            elements = tuple(sorted(found.values()))
            orders = tuple(self.order(e) for e in elements)
            self._apery = AperySet(m, elements, orders)
        return self._apery

    def is_m_pure_symmetric(self) -> tuple:
        """Paired sum and order symmetry on the least-member set.

        Pairs the i-th smallest with the i-th largest member; both the sums
        and the order sums must match the top member.  Returns
        ``(ok, failures)`` where failures list 1-based pair indices with the
        condition ("sum" or "order") they violate.
        """
        ap = self.apery()
        top = ap.elements[-1]
        top_order = ap.orders[-1]
        failures = []
        for i in range(ap.modulus):
            j = ap.modulus - 1 - i
            if ap.elements[i] + ap.elements[j] != top:
                failures.append((i + 1, "sum"))
            if ap.orders[i] + ap.orders[j] != top_order:
                failures.append((i + 1, "order"))
        return (not failures, failures)

    def order_histogram(self) -> tuple:
        """How many least members have each order, indexed from zero."""
        ap = self.apery()
        counts = [0] * (max(ap.orders) + 1)
        for o in ap.orders:
            counts[o] += 1
        return tuple(counts)

