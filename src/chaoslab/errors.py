"""Exception hierarchy shared by all chaoslab modules."""


class ChaosLabError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergent(ChaosLabError):
    """An iterative procedure exhausted its budget without converging."""


class NonFinite(ChaosLabError):
    """A function handle returned NaN or infinity where a finite value is required."""


class GridResolution(ChaosLabError):
    """A grid is too coarse to resolve the requested quantity."""


class DegenerateInput(ChaosLabError):
    """Input data violates a structural precondition (e.g. non-positive values)."""


class InvalidConstants(ChaosLabError):
    """A constant bundle violates the positivity required to evaluate a bound."""


class RegimeViolation(ChaosLabError):
    """Model parameters fall outside the regime of a constants formula."""


class Supercritical(ChaosLabError):
    """The coupling exceeds the critical value; sub-critical formulas do not apply."""


class NonPositiveDefinite(ChaosLabError):
    """A covariance/precision matrix is not positive definite."""


class DivergentChain(ChaosLabError):
    """An MCMC chain left the configured energy envelope."""


class DivergentIntegral(ChaosLabError):
    """An integral diverges for the supplied parameters (tail too heavy)."""


class AssertionFailure(ChaosLabError):
    """A machine check of printed algebra failed (should never happen)."""


class ConfigError(ChaosLabError):
    """An experiment configuration is malformed; carries the offending field path."""

    def __init__(self, field: str, message: str = "") -> None:
        self.field = field
        super().__init__(f"config field '{field}': {message}" if message else f"config field '{field}'")
