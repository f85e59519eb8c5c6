"""Exception types shared across the package."""


class PharaError(Exception):
    """Base class for all library errors."""


class BadDimension(PharaError):
    """Inputs have inconsistent or unsupported shapes."""


class DriftBelowRate(PharaError):
    """A risky asset's expected return does not exceed the riskless rate."""


class SingularVolatility(PharaError):
    """The volatility matrix is numerically singular."""


class BadTime(PharaError):
    """Time argument outside the valid range for the operation."""


class OutOfDomain(PharaError):
    """Wealth argument below the utility's domain."""


class IllegalCase(PharaError):
    """Parameter combination not covered by the piecewise-HARA template."""


class NotConcave(PharaError):
    """An operation that needs a concave envelope got a non-concave utility."""


class NotPhara(PharaError):
    """A composition did not reduce to piecewise-HARA form."""


class UnboundedEnvelope(PharaError):
    """No finite concave majorant exists for the given function."""


class NoConvergence(PharaError):
    """An iterative routine failed to converge within its budget."""


class InfeasibleBudget(PharaError):
    """A wealth level does not exceed the floor e^{-r(T-t)} a0 at its time t."""


class UnboundedDemand(PharaError):
    """No finite optimal wealth: the budget equation has no root, or X_t
    leaves the doubles."""


class StepTooCoarse(PharaError):
    """Too few time steps for a meaningful forward simulation."""
