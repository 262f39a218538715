"""Exception taxonomy shared by every module.

All failures raised by this package derive from AxisphereError so callers
can catch one base class at the CLI boundary.  NumericalFailure and its
subclasses mean a numerical method gave up: the command line exits 2 on
them, and 1 on any other class that reaches it.
"""

from __future__ import annotations


class AxisphereError(Exception):
    """Base class for all errors raised by axisphere."""


# ---------------------------------------------------------------- construction


class OutOfRange(AxisphereError):
    """An argument, coordinate or index lies outside its valid set."""


class NonIncreasing(AxisphereError):
    """Interface heights must be strictly increasing."""


# ------------------------------------------------------------------- numerics


class NumericalFailure(AxisphereError):
    """A numerical method gave up; the command line exits 2 on these."""


class NoConvergence(NumericalFailure):
    """An iteration stopped before reaching its tolerance."""


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
