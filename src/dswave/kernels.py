"""Exponential-background parameters and the two convolution kernels.

The background is a spatially flat exponential expansion with rate H; a
scalar of mass m on it has the index M = sqrt(n^2 H^2 / 4 - m^2), taken on
the principal branch (purely imaginary for heavy masses).  The kernels
K0, K1 enter the representation of the field as corrections to a conformal
wave solution; both are hypergeometric in the variable

    z = ((1 - q)^2 - (H r)^2) / D,   q = e^{-H t},  D = (1 + q)^2 - (H r)^2,

with the complement 1 - z = 4 q / D available in closed form, which the
hypergeometric evaluator exploits near z = 1.  At the distinguished mass
m = sqrt(2) H (index M = H/2) both kernels lose their r dependence and
collapse to elementary exponentials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidParam
from .specfun import hyp2f1

__all__ = [
    "PhysicalParams",
    "KernelEval",
    "phi_of_t",
    "kernel_eval",
    "kernel_eval_endpoint",
    "huygens_k0",
    "huygens_k1",
]

_LN4 = math.log(4.0)
_EPS = math.ulp(1.0)

# relative width of the window around m = sqrt(2) H treated as exactly
# the collapsing mass
HUYGENS_TOL = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Expansion rate H, field mass m, spatial dimension n.

    H = 0 is admitted as the flat-space limit for cross-checks; the kernel
    routines themselves require H > 0.
    """

    H: float
    m: float = 0.0
    n: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.H < math.inf:
            raise InvalidParam(f"H must be finite and >= 0, got {self.H}")
        if not 0.0 <= self.m < math.inf:
            raise InvalidParam(f"m must be finite and >= 0, got {self.m}")
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidParam(f"n must be a positive integer, got {self.n}")
        try:
            self.M
        except OverflowError:
            raise InvalidParam(f"M leaves the binary64 range at H={self.H}, m={self.m}") from None

    @cached_property
    def M(self) -> complex:
        """Principal sqrt(n^2 H^2/4 - m^2); imaginary part >= 0."""
        return cmath.sqrt(complex(0.25 * self.n**2 * self.H**2 - self.m**2, 0.0))

    @cached_property
    def delta(self) -> complex:
        """H - 2M: for real M (4 m^2 - (n^2 - 1) H^2) / (H + 2M), its numerator
        formed exactly from the binary64 m and H, as near the collapsing mass
        H - 2M itself is all rounding; for imaginary M nothing cancels."""
        if self.M.real == 0.0:
            return self.H - 2.0 * self.M
        (a, b), (c, d) = self.m.as_integer_ratio(), self.H.as_integer_ratio()
        num = (4 * a * a * d * d - (self.n**2 - 1) * c * c * b * b) / (b * b * c * c)  # over H^2
        return num * self.H / (1.0 + 2.0 * self.M / self.H)

    @property
    def is_huygensian(self) -> bool:
        """Whether m sits on the collapsing mass sqrt(n^2 - 1)/2 * H."""
        target = 0.5 * math.sqrt(self.n**2 - 1.0) * self.H
        return abs(self.m - target) <= HUYGENS_TOL * max(1.0, self.H)


@dataclass(frozen=True)
class KernelEval:
    """Both kernels at one point; arrays of them when evaluated on arrays."""

    k0: complex
    k1: complex


def phi_of_t(t: float, H: float) -> float:
    """Conformal-clock reparametrization (1 - e^{-H t})/H, = t when H = 0."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if H < 0.0:
        raise InvalidParam(f"H must be >= 0, got {H}")
    if H == 0.0:
        return t
    return -math.expm1(-H * t) / H


def _args(x, t) -> tuple[np.ndarray, np.ndarray]:
    # numpy scalars for a single point (their arithmetic skips the array
    # machinery), broadcast arrays otherwise
    if isinstance(x, float) and isinstance(t, float):
        return np.float64(x), np.float64(t)
    return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))


def _all(mask) -> bool:
    # bool() of a numpy scalar costs a fortieth of its .all()
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _first(bad: np.ndarray, *arrays: np.ndarray) -> tuple[float, ...]:
    # the first offending point, for error messages
    i = int(np.flatnonzero(bad)[0])
    return tuple(float(a.ravel()[i]) for a in arrays)


def _damping(t, H: float):
    """q = e^{-H t}, which must not underflow: the kernels divide by it."""
    q = np.exp(-H * t)
    if not _all(q > 0.0):
        raise DomainError(f"e^(-H t) underflows at t={_first(~(q > 0.0), t)[0]}")
    return q


def kernel_eval(r, t, params: PhysicalParams) -> KernelEval:
    """Evaluate K0 and K1 at radius r, time t (scalars, or arrays that
    broadcast together, which give a KernelEval of arrays).

    Defined on r >= 0, t >= 0 with H r <= 1 - e^{-H t} + (1 + e^{-H t})
    margin, i.e. wherever D > 0 and z >= 0; outside that region the
    hypergeometric argument leaves its branch and DomainError is raised,
    as it is where the kernels leave the binary64 range (late times).
    """
    H = params.H
    if H <= 0.0:
        raise DomainError("kernels require H > 0")
    rs, ts = _args(r, t)
    if not _all(rs >= 0.0):
        raise DomainError(f"r must be >= 0, got {_first(~(rs >= 0.0), rs)[0]}")
    if not _all(ts >= 0.0):
        raise DomainError(f"t must be >= 0, got {_first(~(ts >= 0.0), ts)[0]}")
    q = _damping(ts, H)
    hs = H * rs
    # both squares differences are factored through u = 1 - H r, exact for
    # H r in [1/2, 2]: near the light cone D and the numerator are O(q), and
    # expanding the squares would leave them an absolute error of order eps,
    # which the K0 assembly amplifies by up to 1/q
    u = 1.0 - hs
    d = (q + u) * (2.0 + q - u)
    if not _all(d > 0.0):
        rr, tt = _first(~(d > 0.0), rs, ts)
        raise DomainError(
            f"kernel undefined at r={rr}, t={tt}: denominator (1+q)^2-(Hr)^2 <= 0"
        )
    num = (u - q) * (2.0 - q - u)
    # H r a few ulps beyond 1 - q is rounding in r, not a point outside the
    # light cone: the relative clause covers small H t, where u is itself
    # rounded, the absolute one large H t, where D ~ 4q is tiny
    outside = (num < 0.0) & ~((num > -1e-12 * d) | (u - q >= -4.0 * _EPS * hs))
    if not _all(~outside):
        rr, tt = _first(outside, rs, ts)
        raise DomainError(f"kernel undefined at r={rr}, t={tt}: H r exceeds 1 - e^(-H t)")
    num = np.maximum(num, 0.0)
    z = num / d
    one_minus = 4.0 * q / d  # exact complement of z, no cancellation
    return _assemble(params, rs, ts, q, hs * hs, u, d / q, np.log(d), z, one_minus)


def _assemble(
    params: PhysicalParams,
    r: np.ndarray,
    t: np.ndarray,
    q: np.ndarray,
    hr2: np.ndarray,
    u: np.ndarray,
    d_over_q: np.ndarray,
    ln_d: np.ndarray,
    z: np.ndarray,
    one_minus: np.ndarray,
) -> KernelEval:
    H, m_, delta = params.H, params.M, params.delta
    mh = m_ / H
    # exact H - 2M; the bracket has H - M = M + delta and 1 - (H r)^2 = u (2 - u)
    # (u = 1 - H r), so near the collapsing mass it is O(q + delta), not rounding
    a1 = delta / (2.0 * H)
    a2 = 1.0 + a1
    f1 = hyp2f1(a1, a1, 1.0, z, one_minus_z=one_minus)
    f2 = hyp2f1(a2, a2, 2.0, z, one_minus_z=one_minus)
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = np.exp(-mh * _LN4 + m_ * t + (mh - 0.5) * ln_d) * f1
        term1 = d_over_q * (m_ * (u * (2.0 - u) + q * q) + H * q + delta) * f1
        term2 = delta**2 * (q * q - 1.0 - hr2) / H * f2
        k0 = -q * np.exp(-mh * _LN4 + m_ * t + (mh - 2.5) * ln_d) * (term1 + term2)
    finite = np.isfinite(k0) & np.isfinite(k1)
    if not _all(finite):
        rr, tt = _first(~finite, r, t)
        raise DomainError(f"kernels at r={rr}, t={tt} exceed the binary64 range")
    return KernelEval(complex(k0), complex(k1)) if r.ndim == 0 else KernelEval(k0, k1)


def kernel_eval_endpoint(xi, t, params: PhysicalParams) -> KernelEval:
    """Evaluate the kernels at H r = 1 - xi e^{-H t}, xi >= 1 (scalars, or
    arrays that broadcast together).

    Near the upper integration endpoint both D and 1 - z are O(e^{-H t});
    this parametrization factors them exactly, D = q (1 + xi)(2 + q(1 - xi))
    with q = e^{-H t}, so the evaluation stays accurate even when xi q
    underflows the spacing of 1.0 and the direct form degenerates.
    DomainError where the kernels leave the binary64 range.
    """
    H = params.H
    if H <= 0.0:
        raise DomainError("kernels require H > 0")
    xs, ts = _args(xi, t)
    if not _all(ts >= 0.0):
        raise DomainError(f"t must be >= 0, got {_first(~(ts >= 0.0), ts)[0]}")
    q = _damping(ts, H)
    if not _all(xs >= 1.0 - 1e-9):
        bad = _first(~(xs >= 1.0 - 1e-9), xs)[0]
        raise DomainError(f"endpoint parametrization needs xi >= 1, got {bad}")
    if not _all(xs * q <= 1.0):
        xx, tt = _first(xs * q > 1.0, xs, ts)
        raise DomainError(f"xi={xx} puts the radius below 0 at t={tt}")
    xs = np.maximum(xs, 1.0)
    hs = 1.0 - xs * q
    d_over_q = (1.0 + xs) * (2.0 + q * (1.0 - xs))
    z = (xs - 1.0) * (2.0 - q * (1.0 + xs)) / d_over_q
    one_minus = 4.0 / d_over_q
    ln_d = -H * ts + np.log(d_over_q)
    return _assemble(params, hs / H, ts, q, hs * hs, xs * q, d_over_q, ln_d, z, one_minus)


def _growth(coef: float, t: float, H: float) -> float:
    """coef e^{H t / 2}; DomainError where it leaves the binary64 range."""
    try:
        v = coef * math.exp(0.5 * H * t)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"closed-form kernel at t={t} exceeds the binary64 range")
    return v


def huygens_k1(t: float, H: float) -> float:
    """Closed form of K1 on the collapsing mass: e^{H t / 2} / 2."""
    return _growth(0.5, t, H)


def huygens_k0(t: float, H: float) -> float:
    """Closed form of K0 on the collapsing mass: -(H/4) e^{H t / 2}."""
    return _growth(-0.25 * H, t, H)
