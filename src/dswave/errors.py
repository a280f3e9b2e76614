"""Exception types shared across the package.

The hierarchy keeps caller-side handling coarse: anything raised by a
quadrature routine is a ``QuadratureFailure``, anything raised for bad
arguments is a ``ValueError`` subclass, and the two solver-level failures
(``UnsupportedEll``, ``InstabilityDetected``) stand alone.
"""

from __future__ import annotations


class InvalidParam(ValueError):
    """A parameter violates a documented precondition."""


class DomainError(ValueError):
    """An evaluation point lies outside the admissible domain."""


class DivergentSeries(ValueError):
    """A series argument lies outside every convergent branch."""


class ConfigError(ValueError):
    """A run configuration failed validation."""


class UnsupportedEll(ValueError):
    """Closed-form path requested for a multipole order it does not cover."""


class QuadratureFailure(RuntimeError):
    """Base class for quadrature routines giving up.

    Carries the best available ``value`` and ``err_est`` so callers can
    degrade gracefully instead of losing the computation.
    """

    def __init__(self, message: str, value: complex = 0j, err_est: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class ToleranceNotMet(QuadratureFailure):
    """Quadrature finished but the error estimate exceeds the request."""


class TailNotNegligible(QuadratureFailure):
    """Truncated tail of a semi-infinite integral exceeds its budget."""


class NonFiniteIntegrand(QuadratureFailure):
    """Integrand returned nan or inf inside the integration range."""


class InstabilityDetected(RuntimeError):
    """Finite-difference evolution blew past its growth guard."""


class DegenerateFit(RuntimeError):
    """Decay-rate fit had too few usable samples or a singular design."""
