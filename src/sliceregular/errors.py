"""Exception and warning types shared across the library."""


class RealArgument(ValueError):
    """Raised when an operation needing a non-real quaternion gets a real one."""


class OutsideRadius(ValueError):
    """Evaluation point lies outside the convergence radius of a series."""


class NotReal(ArithmeticError):
    """A quantity that must be real carries a non-negligible imaginary part."""


class ZeroPolynomial(ValueError):
    """The zero polynomial has no well-defined zero set."""


class PoleHit(ZeroDivisionError):
    """A linear fractional transformation was evaluated at its pole."""


class NotUnit(ValueError):
    """A quaternion expected to have unit norm does not."""


class SingularPoint(ValueError):
    """The real differential is not invertible where invertibility is required."""


class DomainError(ValueError):
    """The argument lies outside the maximal domain of the requested structure."""


class NotOnSurface(ValueError):
    """The projective point does not lie on the surface being classified."""


class PoleDetected(ValueError):
    """A curve sample signals a sphere of non-removable poles."""


class FitError(RuntimeError):
    """No polynomial of admissible degree fits the supplied curve samples."""


class ConditioningWarning(UserWarning):
    """An answer is returned but float64 cannot vouch for all of it."""
