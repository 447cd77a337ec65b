"""Exact-arithmetic tools for Lefschetz properties of graded Artinian algebras.

The modules layer as follows: ``exactla`` (sparse rational linear algebra on
integer kernels), ``polyring`` (monomials, homogeneous polynomials, ideal
degree slices), ``quotient`` (Hilbert data and WLP/SLP verdicts), ``family``
(a five-parameter Gorenstein ideal family with coverage classification and
structured sign-pattern determinants), ``semigroup`` (numerical semigroup
reports), and ``cli`` (the ``lefschetz`` command).
"""

__version__ = "0.1.0"

from .exactla import EchelonForm  # noqa: F401
from .polyring import HomogeneousPoly, IdealPresentation  # noqa: F401
from .quotient import GradedQuotient, LinearForm  # noqa: F401
from .family import GorensteinParams, build_ci, build_ideal, classify, validate  # noqa: F401
from .semigroup import NumericalSemigroup  # noqa: F401
