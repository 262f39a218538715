"""Exception taxonomy shared by every module.

All failures raised by this package derive from AxisphereError so callers
can catch one base class at the CLI boundary.
"""

from __future__ import annotations


class AxisphereError(Exception):
    """Base class for all errors raised by axisphere."""


# ---------------------------------------------------------------- construction


class OutOfRange(AxisphereError):
    """A coordinate or parameter left its admissible interval."""


class NonIncreasing(AxisphereError):
    """Interface heights must be strictly increasing."""


class MassMismatch(AxisphereError):
    """Computed mean value disagrees with the caller's expectation."""


class IndexOutOfRange(AxisphereError):
    """Interface or segment index outside 1..n (or 0..n for segments)."""


class NonPositive(AxisphereError):
    """A strictly positive quantity (radius, count) was not positive."""


class DomainError(AxisphereError):
    """Arguments outside the formula's domain of validity."""


class EmptyRange(AxisphereError):
    """A sweep range produced no evaluation points."""


class OrderingViolated(AxisphereError):
    """A move would break strict interface ordering."""


# ------------------------------------------------------------------- numerics


class NumericalFailure(AxisphereError):
    """A numerical method gave up; the command line exits 2 on these."""


class ToleranceNotMet(NumericalFailure):
    """Adaptive quadrature exhausted its panel depth."""


class NoConvergence(NumericalFailure):
    """Iteration limit reached before the residual tolerance."""


class LeftDomain(NumericalFailure):
    """Damping could not keep the Newton iterate inside the domain."""


class BranchLost(NumericalFailure):
    """Continuation failed twice in a row after halving the step."""


class Asymptote(NumericalFailure):
    """Closed-form curve denominator vanishes at this abscissa."""


class CycleLimit(NumericalFailure):
    """Coordinate-sweep minimization hit its cycle cap."""


class NoEscape(AxisphereError):
    """No energy-reducing move away from the boundary configuration."""


class NotCritical(AxisphereError):
    """Operation requires a critical point but residuals are too large."""
