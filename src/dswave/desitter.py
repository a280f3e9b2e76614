"""Field evaluation on the exponentially expanding background.

The field for one angular mode is assembled from flat-space wave blocks
evaluated on the rescaled clock phi(t) = (1 - e^{-H t})/H, damped by
explicit exponentials, plus kernel-weighted time convolutions of the same
blocks (``ita_assemble``).  Two realizations of the blocks are provided:
quadrature of the traveling-average form (``field_riemann``) and the
spectral form (``field_hankel``).  On the collapsing mass m = sqrt(2) H
the kernels are elementary and the convolution simplifies to a plain time
integral (``field_riemann_huygens``, ``field_hankel_huygens``).

Also here: the bound-state ("pionic") profile family with its closed-form
spectral transform, and the late-time decay machinery (``decay_classify``
for the predicted envelope, ``decay_fit`` for a least-squares rate fit of
sampled magnitudes).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateFit,
    DivergentSeries,
    DomainError,
    InvalidParam,
    NonFiniteIntegrand,
    QuadratureFailure,
    ToleranceNotMet,
)
from . import kernels, quadrature
from .kernels import PhysicalParams, phi_of_t
from .minkowski import (
    ModeState,
    RadialProfile,
    _check_mode,
    _hankel_block,
    _profile_transform,
    scaled_profile,
    wave_block,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_finite
from .specfun import assoc_laguerre, hyp2f1, spherical_harmonic

__all__ = [
    "ALPHA_FS",
    "FieldSample",
    "FieldGrid",
    "DeSitterField",
    "DecayReport",
    "ita_assemble",
    "ita_remainder",
    "field_riemann",
    "field_riemann_huygens",
    "field_hankel",
    "field_hankel_huygens",
    "evaluate_grid",
    "pionic_profile",
    "pionic_mode",
    "decay_classify",
    "decay_fit",
]

# fine-structure value used by the bound-state profiles
ALPHA_FS = 1.0 / 137.0


# ---------------------------------------------------------------------------
# Result containers


@dataclass(frozen=True)
class FieldSample:
    r: float
    t: float
    value: complex
    method: str
    err_flag: str = "ok"


@dataclass
class FieldGrid:
    """Field values over the tensor grid r_values x t_values.

    values has shape (len(r_values), len(t_values)); err_flags mirrors it
    with "ok" or the exception class name of a tolerated failure.  Entries
    flagged "ok" must be finite; the evaluators store nan in both parts of
    every flagged entry.
    """

    r_values: tuple[float, ...]
    t_values: tuple[float, ...]
    values: np.ndarray
    err_flags: list[list[str]]
    method: str = ""

    def __post_init__(self) -> None:
        self.r_values = tuple(float(r) for r in self.r_values)
        self.t_values = tuple(float(t) for t in self.t_values)
        self.values = np.asarray(self.values, dtype=complex)
        shape = (len(self.r_values), len(self.t_values))
        if self.values.shape != shape:
            raise InvalidParam(
                f"values shape {self.values.shape} != grid shape {shape}"
            )
        if len(self.err_flags) != shape[0] or any(
            len(row) != shape[1] for row in self.err_flags
        ):
            raise InvalidParam("err_flags shape does not match the grid")
        for i, row in enumerate(self.err_flags):
            for j, flag in enumerate(row):
                if flag == "ok" and not np.isfinite(self.values[i, j]):
                    raise InvalidParam(
                        f"non-finite value at r={self.r_values[i]}, "
                        f"t={self.t_values[j]} not flagged"
                    )

    def sample(self, i: int, j: int) -> FieldSample:
        return FieldSample(
            r=self.r_values[i],
            t=self.t_values[j],
            value=complex(self.values[i, j]),
            method=self.method,
            err_flag=self.err_flags[i][j],
        )

    def __iter__(self):
        for i in range(len(self.r_values)):
            for j in range(len(self.t_values)):
                yield self.sample(i, j)


@dataclass(frozen=True)
class DeSitterField:
    """A grid of field values together with everything that produced it."""

    params: PhysicalParams
    mode: ModeState
    theta: float
    phi: float
    grid: FieldGrid


@dataclass(frozen=True)
class DecayReport:
    """Predicted late-time envelope |Phi| ~ e^{a t} (1+t)^p and, when a fit
    was run, the least-squares estimates of a and p with the log-residual
    rms.  regime "synthetic" marks a fit without an attached parameter set;
    fields that were not computed hold nan."""

    regime: str
    predicted_exponent: float
    predicted_poly_power: float
    fitted_exponent: float = math.nan
    fitted_poly_power: float = math.nan
    fit_residual: float = math.nan
    t_window: tuple[float, float] | None = None
    n_samples: int = 0


# ---------------------------------------------------------------------------
# Assembly


def _check_point(
    mode: ModeState | None,
    params: PhysicalParams,
    r: float,
    t: float,
    *,
    expanding: bool = True,
) -> None:
    """Argument checks shared by the point evaluators: a usable mode,
    finite r > 0 and t >= 0, and, where the kernel assembly is used
    (expanding=True), an expanding background.  The collapsing-mass forms
    also admit the flat limit H = 0."""
    if mode is not None:
        _check_mode(mode)
    if not (math.isfinite(r) and math.isfinite(t)):
        raise DomainError(f"r and t must be finite, got r={r}, t={t}")
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if expanding and params.H <= 0.0:
        raise DomainError("assembly requires H > 0")


def _kernels(evaluate, x, t: float, params: PhysicalParams) -> kernels.KernelEval:
    """Both kernels at the convolution nodes, from one evaluation.  Where
    they cannot be evaluated there (beyond the binary64 range at late times,
    or a series that cancels at heavy masses) the integrand is not finite."""
    try:
        return evaluate(x, t, params)
    except (DomainError, DivergentSeries) as exc:
        raise NonFiniteIntegrand(f"convolution kernel at t={t}: {exc}") from None


def _require_collapse(params: PhysicalParams) -> None:
    if params.n != 3:
        raise InvalidParam("collapsing-mass forms are specific to n = 3")
    if not params.is_huygensian:
        raise InvalidParam(
            f"m={params.m} is not the collapsing mass sqrt(2)*H={math.sqrt(2) * params.H}"
        )


def _panel_quad(g: Callable[[np.ndarray], np.ndarray], xi_max: float,
                xi_r: float | None, spec: QuadratureSpec) -> tuple[complex, float]:
    """The endpoint layer int_1^{xi_max} g(xi) dxi in one engine pass: the
    geometric panels [4^k, 4^{k+1}] of [1, xi_max], each seeing at most a
    few units of ln xi, are the integrals of one batch, cut at xi_r where
    the blocks kink.  Returns the summed value and error estimate.

    Each panel is refined to abs_tol/16 or a relative 1e-6, in at most 32
    intervals, and none of them raises: the blocks feeding g carry
    quadrature noise near their own rel_tol, amplified by the large kernel
    values, which an estimator chases to no end.  The caller judges the
    summed error instead.
    """
    edges = [1.0]
    while 4.0 * edges[-1] < xi_max:
        edges.append(4.0 * edges[-1])
    edges = np.array([*edges, xi_max])
    # through the module binding, which the benchmark's tracer counts
    value, err, _ = quadrature.quad(
        lambda xi, k: g(xi), edges[:-1], edges[1:], spec.abs_tol / 16.0, 1e-6, 32,
        () if xi_r is None else (xi_r,),
    )
    return complex(value.sum()), float(err.sum())


def _ita_integrals(
    w0: Callable[[float, np.ndarray], np.ndarray],
    params: PhysicalParams,
    r: float,
    t: float,
    w1: Callable[[float, np.ndarray], np.ndarray] | None,
    spec: QuadratureSpec,
) -> complex:
    """The damped kernel convolutions of ita_assemble as one integral of
    (2 K0 + n H K1) v0 + 2 K1 v1, each node with one kernel evaluation."""
    h = params.H
    pt = phi_of_t(t, h)
    if pt == 0.0:
        return 0j
    n_h = params.n * h
    q = math.exp(-h * t)

    def combine(ke: kernels.KernelEval, s: np.ndarray) -> np.ndarray:
        # all nodes of a quadrature pass at once: one batch of wave blocks
        # per profile and one array kernel evaluation
        out = (2.0 * ke.k0 + n_h * ke.k1) * w0(r, s)
        if w1 is not None:
            out += 2.0 * ke.k1 * w1(r, s)
        return out

    # the kernels are looked up at call time, through the module bindings
    # the benchmark's tracer wraps
    direct = lambda s: combine(_kernels(kernels.kernel_eval, s, t, params), s)
    # the blocks kink where the integration time crosses the radius
    s_end = pt if q >= 0.05 else 0.7 / h
    total = integrate_finite(direct, 0.0, s_end, spec, points=(r,)).value
    if q < 0.05:
        # late time: the kernels grow like D^{M/H - 5/2} with D ~ 4 q near
        # the upper endpoint; substitute H s = 1 - xi q on [0.7/H, phi(t)],
        # which spreads the endpoint structure into a slow power law (a
        # log-chirp when M is imaginary) in xi on [1, 0.3/q].  The block
        # argument (1 - xi q)/h may round onto the endpoint; only the
        # kernels need the exactly factored parametrization.
        def g(xi: np.ndarray) -> np.ndarray:
            ke = _kernels(kernels.kernel_eval_endpoint, xi, t, params)
            return combine(ke, (1.0 - xi * q) / h) * (q / h)

        xi_max = 0.3 / q
        xi_r = (1.0 - h * r) / q if s_end < r < pt else None
        layer, err = _panel_quad(g, xi_max, xi_r, spec)
        total += layer
        if err > 1e-4 * max(abs(total), 1.0):
            raise ToleranceNotMet(
                f"layer panels on [1, {xi_max:.3g}]: accumulated err "
                f"{err:.3e} vs total {abs(total):.3e}",
                value=total,
                err_est=err,
            )
    return math.exp(-0.5 * params.n * h * t) * total


def ita_assemble(
    wave_solution: Callable[[float, np.ndarray], np.ndarray],
    params: PhysicalParams,
    r: float,
    t: float,
    wave_solution_1: Callable[[float, np.ndarray], np.ndarray] | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Assemble the field value from flat-space wave solutions.

    wave_solution(r, s) must be the wave evolution of the initial data and
    wave_solution_1 that of the initial velocity (each with zero partner
    velocity); both take an array of times s and return an array of its
    shape.  The result is

        e^{-(n-1)H t/2} v0(r, phi(t))
        + e^{-n H t/2} int_0^{phi(t)} [2 K0 + n H K1](s, t) v0(r, s) ds
        + 2 e^{-n H t/2} int_0^{phi(t)} K1(s, t) v1(r, s) ds.

    The two convolutions are one integral: each quadrature pass over it
    makes one kernel evaluation and one batch of blocks per profile for all
    its nodes.  At late times
    (e^{-H t} < 0.05) its part near the light cone, s > 0.7/H, is taken in
    the endpoint parametrization H s = 1 - xi e^{-H t}: geometric panels in
    xi, all of them integrated in one pass of the quadrature engine.
    """
    _check_point(None, params, r, t)
    lead = math.exp(-0.5 * (params.n - 1) * params.H * t) * complex(
        wave_solution(r, np.asarray(phi_of_t(t, params.H)))
    )
    return lead + _ita_integrals(wave_solution, params, r, t, wave_solution_1, spec)


def _wave_blocks(mode: ModeState, spec: QuadratureSpec):
    """ita_assemble's wave blocks of the mode's data and velocity (or None)."""
    w0 = lambda rr, s: wave_block(mode.f0, mode.ell, rr, s, spec)
    if mode.f1 is None:
        return w0, None
    return w0, lambda rr, s: wave_block(mode.f1, mode.ell, rr, s, spec)


def ita_remainder(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Kernel-convolution part of the radial field (assembly minus the
    damped traveling term); this is the piece whose late-time envelope the
    decay machinery classifies."""
    _check_point(mode, params, r, t)
    w0, w1 = _wave_blocks(mode, spec)
    return _ita_integrals(w0, params, r, t, w1, spec)


# ---------------------------------------------------------------------------
# Point evaluators


def field_riemann(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Field value via quadrature wave blocks under the assembly formula."""
    _check_point(mode, params, r, t)
    y = spherical_harmonic(mode.ell, mode.m, theta, phi)
    w0, w1 = _wave_blocks(mode, spec)
    return y * ita_assemble(w0, params, r, t, w1, spec=spec)


def field_riemann_huygens(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Collapsing-mass field: e^{-H t} [v0(phi(t)) + int_0^{phi(t)}
    (H v0 + v1)(s) ds] times the angular factor."""
    _require_collapse(params)
    _check_point(mode, params, r, t, expanding=False)
    h = params.H
    pt = phi_of_t(t, h)
    y = spherical_harmonic(mode.ell, mode.m, theta, phi)
    v = wave_block(mode.f0, mode.ell, r, pt, spec)
    if pt > 0.0:
        def integrand(s: np.ndarray) -> np.ndarray:
            out = h * wave_block(mode.f0, mode.ell, r, s, spec)
            if mode.f1 is not None:
                out += wave_block(mode.f1, mode.ell, r, s, spec)
            return out

        # the blocks kink where the integration time crosses the radius
        v += integrate_finite(integrand, 0.0, pt, spec, points=(r,)).value
    return y * math.exp(-h * t) * v


def field_hankel(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Field value with spectral wave blocks under the assembly formula:
    ita_assemble, as in field_riemann, with each quadrature pass of the
    convolutions handing all its nodes to one batch of spectral blocks."""
    _check_point(mode, params, r, t)
    y = spherical_harmonic(mode.ell, mode.m, theta, phi)
    hat0 = _profile_transform(mode.f0, mode.ell, spec)
    w0 = lambda rr, s: _hankel_block(hat0, mode.ell, rr, s, "cos", spec)
    w1 = None
    if mode.f1 is not None:
        hat1 = _profile_transform(mode.f1, mode.ell, spec)
        w1 = lambda rr, s: _hankel_block(hat1, mode.ell, rr, s, "cos", spec)
    return y * ita_assemble(w0, params, r, t, w1, spec=spec)


def field_hankel_huygens(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Collapsing-mass field in spectral form: the time integral of the
    cos-type block is carried out in closed form, leaving sin-type blocks

        e^{-H t} (1/sqrt r) [ int fhat0 cos(lam phi(t)) J lam dlam
            + int (H fhat0 + fhat1)(lam) sin(lam phi(t)) J dlam ].
    """
    _require_collapse(params)
    _check_point(mode, params, r, t, expanding=False)
    h = params.H
    pt = phi_of_t(t, h)
    y = spherical_harmonic(mode.ell, mode.m, theta, phi)
    hat0 = _profile_transform(mode.f0, mode.ell, spec)
    v = _hankel_block(hat0, mode.ell, r, pt, "cos", spec)
    v += h * _hankel_block(hat0, mode.ell, r, pt, "sin", spec)
    if mode.f1 is not None:
        hat1 = _profile_transform(mode.f1, mode.ell, spec)
        v += _hankel_block(hat1, mode.ell, r, pt, "sin", spec)
    return y * math.exp(-h * t) * v


_FLAGGED = complex(math.nan, math.nan)

_METHODS: dict[str, Callable[..., complex]] = {
    "riemann": field_riemann,
    "hankel": field_hankel,
    "huygens_riemann": field_riemann_huygens,
    "huygens_hankel": field_hankel_huygens,
}


def _evaluate_point(
    fn: Callable[..., complex],
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float,
    phi: float,
    spec: QuadratureSpec,
) -> tuple[complex, str]:
    """One point of a grid and its err_flag.  A tolerated quadrature
    failure is flagged with its class name and gives nan in both parts: the
    estimate an exception carries belongs to the integral that missed, not
    to the field.  Arithmetic that leaves the binary64 range on the way, and
    a value beyond it, are flagged DomainError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value = complex(fn(mode, params, r, t, theta, phi, spec))
    except QuadratureFailure as exc:
        return _FLAGGED, type(exc).__name__
    except ArithmeticError:
        value = _FLAGGED
    if cmath.isfinite(value):
        return value, "ok"
    return _FLAGGED, DomainError.__name__


def evaluate_grid(
    mode: ModeState,
    params: PhysicalParams,
    method: str,
    r_values: Sequence[float],
    t_values: Sequence[float],
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
    fd_config=None,
) -> DeSitterField:
    """Evaluate the field over a tensor grid, one method, sequentially.

    Tolerated quadrature failures are recorded per point in err_flags,
    and the value of every flagged point is nan.  method "fd" runs the
    finite-difference evolution (one call for the whole grid) and applies
    the angular factor afterwards.
    """
    rs = tuple(float(r) for r in r_values)
    ts = tuple(float(t) for t in t_values)
    if method == "fd":
        from .oracle import FDConfig, solve_fd

        if fd_config is None:
            t_end = max(ts)
            fd_config = FDConfig(
                r_max=max(rs) + t_end + 0.5, n_r=2000, t_end=t_end
            )
        radial = solve_fd(params, mode, fd_config, rs, ts)
        y = spherical_harmonic(mode.ell, mode.m, theta, phi)
        grid = FieldGrid(
            r_values=rs,
            t_values=ts,
            values=y * radial.values,
            err_flags=radial.err_flags,
            method="fd",
        )
        return DeSitterField(params=params, mode=mode, theta=theta, phi=phi, grid=grid)
    try:
        fn = _METHODS[method]
    except KeyError:
        raise InvalidParam(f"unknown method {method!r}") from None
    values = np.empty((len(rs), len(ts)), dtype=complex)
    flags = [["ok"] * len(ts) for _ in rs]
    for i, r in enumerate(rs):
        for j, t in enumerate(ts):
            values[i, j], flags[i][j] = _evaluate_point(
                fn, mode, params, r, t, theta, phi, spec
            )
    grid = FieldGrid(
        r_values=rs, t_values=ts, values=values, err_flags=flags, method=method
    )
    return DeSitterField(params=params, mode=mode, theta=theta, phi=phi, grid=grid)


# ---------------------------------------------------------------------------
# Bound-state profiles


def pionic_profile(
    n_quantum: int,
    ell: int,
    Z: int = 1,
    normalization: complex | str = 1.0,
    alpha: float = ALPHA_FS,
) -> RadialProfile:
    """Hydrogen-like bound-state profile with relativistic small-r exponent:

        F(r) = C r^{mu - 1/2} e^{-r/2} L^{(2 mu)}_{n-ell-1}(r),
        mu = sqrt((ell + 1/2)^2 - (Z alpha)^2).

    normalization is either a constant C or "l2" for a unit spatial L^2
    norm.  The spectral transform of order ell + 1/2 is attached in closed
    form (Laplace-type integral of each Laguerre monomial), so spectral
    evaluations never fall back to numerical transforms.
    """
    if not isinstance(n_quantum, int) or n_quantum < 1:
        raise InvalidParam(f"n_quantum must be a positive integer, got {n_quantum}")
    if not isinstance(ell, int) or not 0 <= ell < n_quantum:
        raise InvalidParam(f"need 0 <= ell < n_quantum, got ell={ell}")
    if not isinstance(Z, int) or Z < 1:
        raise InvalidParam(f"Z must be a positive integer, got {Z}")
    za = Z * alpha
    disc = (ell + 0.5) ** 2 - za * za
    if disc <= 0.0:
        raise DomainError(f"Z alpha = {za} too large: small-r exponent complex")
    mu = math.sqrt(disc)
    k = n_quantum - ell - 1
    two_mu = 2.0 * mu
    if normalization == "l2":
        # int_0^inf |F|^2 r^2 dr = C^2 Gamma(k + 2mu + 1)/k! (2k + 2mu + 1)
        nrm2 = (
            math.gamma(k + two_mu + 1.0)
            / math.factorial(k)
            * (2.0 * k + two_mu + 1.0)
        )
        c = 1.0 / math.sqrt(nrm2)
    else:
        c = complex(normalization)
        if c.imag == 0.0:
            c = c.real

    def func(x):
        return c * x ** (mu - 0.5) * np.exp(-0.5 * x) * assoc_laguerre(k, two_mu, x)

    return RadialProfile(func=func, mu=mu, parity_ell=ell, hankel=_pionic_hat(c, mu, k, ell))


def _pionic_hat(c: complex, mu: float, k: int, ell: int) -> Callable[[float], complex]:
    """Closed-form transform of the bound-state profile: term by term over
    the Laguerre monomials, each a Laplace-type Bessel integral

        int_0^inf e^{-rho/2} rho^{q-1} J_nu(lam rho) drho
          = Gamma(nu+q) (lam/2)^nu (1/4 + lam^2)^{-(nu+q)/2} / Gamma(nu+1)
            * 2F1((nu+q)/2, (1-q+nu)/2; nu+1; lam^2/(1/4 + lam^2)),

    with q = mu + 2 + j.  The parameter combination keeps c - a - b = 1/2
    for every term, so the evaluator never meets its logarithmic case."""
    nu = ell + 0.5
    lg_top = math.gamma(k + 2.0 * mu + 1.0)
    terms = []
    for j in range(k + 1):
        lj = (-1.0) ** j * lg_top / (
            math.gamma(2.0 * mu + j + 1.0) * math.factorial(k - j) * math.factorial(j)
        )
        q = mu + 2.0 + j
        cg = math.gamma(nu + q) / math.gamma(nu + 1.0)
        terms.append((lj * cg, 0.5 * (nu + q), 0.5 * (1.0 - q + nu)))

    def hat(lam):
        lams = np.asarray(lam, dtype=float)
        pos = lams > 0.0
        lp = np.where(pos, lams, 1.0)
        s2 = 0.25 + lp * lp
        z = lp * lp / s2
        one_minus = 0.25 / s2
        tot = 0j
        for coef, a1, a2 in terms:
            f = hyp2f1(a1, a2, nu + 1.0, z, one_minus_z=one_minus)
            tot = tot + coef * s2 ** (-(a1)) * f
        out = np.where(pos, c * (0.5 * lp) ** nu * tot, 0j)
        return complex(out) if lams.ndim == 0 else out

    return hat


def pionic_mode(
    n_quantum: int,
    ell: int,
    m: int = 0,
    Z: int = 1,
    energy: float | None = None,
    normalization: complex | str = 1.0,
) -> ModeState:
    """Bound-state mode; energy, when given, sets the stationary-phase
    initial velocity f1 = -i * energy * f0."""
    f0 = pionic_profile(n_quantum, ell, Z, normalization)
    f1 = None if energy is None else scaled_profile(f0, -1j * energy)
    return ModeState(ell=ell, m=m, f0=f0, f1=f1)


# ---------------------------------------------------------------------------
# Late-time decay


def decay_classify(params: PhysicalParams) -> DecayReport:
    """Predicted late-time envelope of the kernel part, n = 3:

    * m < sqrt(2) H      -> e^{(-3H/2 + M) t}          ("light")
    * m = sqrt(2) H      -> e^{-H t}                   ("critical")
    * sqrt(2) H < m < 3H/2 -> e^{-H t}                 ("intermediate")
    * m >= 3H/2          -> e^{-H t} (1+t)^{1 - sgn|M|} ("heavy")
    """
    if params.H <= 0.0:
        raise InvalidParam("decay classification requires H > 0")
    if params.n != 3:
        raise InvalidParam("decay thresholds are specific to n = 3")
    h, m = params.H, params.m
    if params.is_huygensian:
        regime, expo, poly = "critical", -h, 0.0
    elif m < math.sqrt(2.0) * h:
        regime, expo, poly = "light", -1.5 * h + params.M.real, 0.0
    elif m < 1.5 * h:
        regime, expo, poly = "intermediate", -h, 0.0
    else:
        regime = "heavy"
        expo = -h
        poly = 1.0 if abs(params.M) <= 1e-6 * h else 0.0
    return DecayReport(
        regime=regime, predicted_exponent=expo, predicted_poly_power=poly
    )


def decay_fit(
    sampler: Callable[[float], complex],
    t_window: tuple[float, float],
    n_samples: int,
    params: PhysicalParams | None = None,
    fit_poly_power: bool = False,
    discard_fraction: float = 0.0,
) -> DecayReport:
    """Least-squares fit of log|sampler(t)| to a + b t (+ p log(1+t)).

    discard_fraction drops that fraction of samples with the lowest
    residual against a provisional straight-line fit; this trims the dips
    of an oscillatory envelope, which otherwise bias the rate.  Raises
    DegenerateFit when underflow or discards leave too few samples or the
    design loses rank.
    """
    ta, tb = float(t_window[0]), float(t_window[1])
    if not tb > ta >= 0.0:
        raise InvalidParam(f"bad window {t_window}")
    if n_samples < 4:
        raise InvalidParam("need at least 4 samples")
    if not 0.0 <= discard_fraction < 0.9:
        raise InvalidParam(f"bad discard_fraction {discard_fraction}")
    # the parameters are classified before any sample is paid for
    if params is not None:
        base = decay_classify(params)
        regime = base.regime
        pred_e, pred_p = base.predicted_exponent, base.predicted_poly_power
    else:
        regime, pred_e, pred_p = "synthetic", math.nan, math.nan
    ts = np.linspace(ta, tb, n_samples)
    mags = np.array([abs(complex(sampler(float(t)))) for t in ts])
    good = mags > 1e-290
    n_min = 4 if fit_poly_power else 3
    if int(good.sum()) < n_min:
        raise DegenerateFit("samples underflowed; shrink the window")
    tk = ts[good]
    lv = np.log(mags[good])
    if discard_fraction > 0.0:
        pre = np.polyfit(tk, lv, 1)
        resid = lv - np.polyval(pre, tk)
        thr = np.quantile(resid, discard_fraction)
        sel = resid >= thr
        if int(sel.sum()) < n_min:
            raise DegenerateFit("discard_fraction leaves too few samples")
        tk, lv = tk[sel], lv[sel]
    cols = [np.ones_like(tk), tk]
    if fit_poly_power:
        cols.append(np.log1p(tk))
    design = np.column_stack(cols)
    sol, _, rank, _ = np.linalg.lstsq(design, lv, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateFit("rank-deficient fit design")
    rms = float(np.sqrt(np.mean((design @ sol - lv) ** 2)))
    return DecayReport(
        regime=regime,
        predicted_exponent=pred_e,
        predicted_poly_power=pred_p,
        fitted_exponent=float(sol[1]),
        fitted_poly_power=float(sol[2]) if fit_poly_power else math.nan,
        fit_residual=rms,
        t_window=(ta, tb),
        n_samples=n_samples,
    )
