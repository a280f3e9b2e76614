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
from .kernels import PhysicalParams, _all, phi_of_t
from .minkowski import ModeState, RadialProfile, _blocks, _check_mode, scaled_profile
# the blocks come from _blocks; these bindings are kept for the benchmark's
# tracer, which wraps them
from .minkowski import _hankel_block, _profile_transform, wave_block  # noqa: F401
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
    t: float | np.ndarray,
    *,
    expanding: bool = True,
) -> None:
    """Argument checks shared by the evaluators: a usable mode, finite
    r > 0 and t >= 0 (a time or an array of them), and, where the kernel
    assembly is used (expanding=True), an expanding background.  The
    collapsing-mass forms also admit the flat limit H = 0."""
    if mode is not None:
        _check_mode(mode)
    ts = np.asarray(t, dtype=float)
    if not (math.isfinite(r) and _all(np.isfinite(ts))):
        raise DomainError(f"r and t must be finite, got r={r}, t={t}")
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    if not _all(ts >= 0.0):
        raise DomainError(f"t must be >= 0, got {t}")
    if expanding and params.H <= 0.0:
        raise DomainError("assembly requires H > 0")


def _kernels(evaluate, x, t, params: PhysicalParams) -> kernels.KernelEval:
    """Both kernels at the convolution nodes, from one evaluation.  Where
    they cannot be evaluated there (beyond the binary64 range at late times,
    or a series that cancels at heavy masses) the integrand is not finite."""
    try:
        return evaluate(x, t, params)
    except (DomainError, DivergentSeries) as exc:
        raise NonFiniteIntegrand(f"convolution kernel: {exc}") from None


def _panel_quad(g: Callable[[np.ndarray, np.ndarray], np.ndarray], xi_max: np.ndarray,
                xi_r: np.ndarray, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint layers int_1^{xi_max_j} g(xi, j) dxi of the times j in
    one engine pass: the geometric panels [4^k, 4^{k+1}] of each [1,
    xi_max_j], each seeing at most a few units of ln xi, are the integrals
    of one batch, cut at xi_r_j where the blocks of time j kink (nan: no
    cut).  Returns each time's summed value and error estimate.

    Each panel is refined to abs_tol/16 or a relative 1e-6, in at most 32
    intervals, and none of them raises: the blocks feeding g carry
    quadrature noise near their own rel_tol, amplified by the large kernel
    values, which an estimator chases to no end.  The caller judges each
    time's summed error instead.
    """
    lo, hi, counts = [], [], []
    for top in xi_max:
        edges = [1.0]
        while 4.0 * edges[-1] < top:
            edges.append(4.0 * edges[-1])
        edges.append(float(top))
        lo += edges[:-1]
        hi += edges[1:]
        counts.append(len(edges) - 1)
    time = np.repeat(np.arange(len(counts)), counts)
    # through the module binding, which the benchmark's tracer counts
    value, err, _ = quadrature.quad(
        lambda xi, k: g(xi, time[k]), np.array(lo), np.array(hi), spec.abs_tol / 16.0, 1e-6,
        32, xi_r[time, None],
    )
    ends = np.cumsum(counts)
    # each time's panels summed by ndarray.sum, pairwise, as one time's
    # layer alone is summed; np.add.reduceat adds in sequence, which rounds
    # the late-time values differently
    return (np.array([value[e - c:e].sum() for c, e in zip(counts, ends)]),
            np.array([err[e - c:e].sum() for c, e in zip(counts, ends)]))


# times assembled together: the direct parts of a group are one engine
# pass and its endpoint layers another, so that the nested block batches
# stay bounded however many times a caller hands over.  16 is the largest
# group at the lowest peak memory of a 5,000-sample decay fit; larger ones
# gain at most ~10% in time there for ~3 MB more.
_TIME_GROUP = 16


def _ita_group(
    w0: Callable[[float, np.ndarray], np.ndarray],
    params: PhysicalParams,
    r: float,
    ts: np.ndarray,
    w1: Callable[[float, np.ndarray], np.ndarray] | None,
    spec: QuadratureSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The damped convolutions of _ita_integrals at the times ts (1-d, each
    with phi(t) > 0): their values, error estimates and misses."""
    h = params.H
    n_h = params.n * h
    # math's exp and expm1 per time: numpy's vector exp rounds a few percent
    # of arguments differently, which would move every result built on them
    pts, qs, damping = np.array(
        [(phi_of_t(t, h), math.exp(-h * t), math.exp(-0.5 * params.n * h * t)) for t in ts]
    ).T
    late = qs < 0.05

    def combine(ke: kernels.KernelEval, s: np.ndarray) -> np.ndarray:
        # all nodes of a quadrature pass at once: one batch of wave blocks
        # per profile and one array kernel evaluation
        out = (2.0 * ke.k0 + n_h * ke.k1) * w0(r, s)
        if w1 is not None:
            out += 2.0 * ke.k1 * w1(r, s)
        return out

    # a miss of the blocks nested in the direct pass passes through; the
    # pass's own miss is judged with the layers, below, on its estimates
    nested = []

    def direct(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        # the kernels are looked up at call time, through the module
        # bindings the benchmark's tracer wraps
        try:
            return combine(_kernels(kernels.kernel_eval, s, ts[k], params), s)
        except ToleranceNotMet:
            nested.append(True)
            raise

    # one integral per time on [0, phi(t)], or at late times up to the
    # endpoint layer, cut where the integration time crosses the radius and
    # the blocks kink
    try:
        direct_pass = integrate_finite(direct, np.zeros(ts.size), np.where(late, 0.7 / h, pts),
                                       spec, points=(r,))
    except ToleranceNotMet as exc:
        if nested:
            raise
        direct_pass = exc
    total, err = direct_pass.value, direct_pass.err_est
    missed = err > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    if late.any():
        # late time: the kernels grow like D^{M/H - 5/2} with D ~ 4 q near
        # the upper endpoint; substitute H s = 1 - xi q on [0.7/H, phi(t)],
        # which spreads the endpoint structure into a slow power law (a
        # log-chirp when M is imaginary) in xi on [1, 0.3/q].  The block
        # argument (1 - xi q)/h may round onto the endpoint; only the
        # kernels need the exactly factored parametrization.
        lt = np.flatnonzero(late)
        tl, ql = ts[lt], qs[lt]

        def g(xi: np.ndarray, k: np.ndarray) -> np.ndarray:
            ke = _kernels(kernels.kernel_eval_endpoint, xi, tl[k], params)
            return combine(ke, (1.0 - xi * ql[k]) / h) * (ql[k] / h)

        inside = (0.7 / h < r) & (r < pts[lt])
        layer, layer_err = _panel_quad(g, 0.3 / ql, np.where(inside, (1.0 - h * r) / ql, np.nan),
                                       spec)
        total[lt] += layer
        err[lt] += layer_err
        missed[lt] |= layer_err > 1e-4 * np.maximum(np.abs(total[lt]), 1.0)
    return damping * total, damping * err, missed


def _shaped(values: np.ndarray, shape: tuple[int, ...], kind: type = complex):
    # per-time results in the shape of the times: a number for one time
    return kind(values[0]) if shape == () else values.reshape(shape)


def _ita_integrals(
    w0: Callable[[float, np.ndarray], np.ndarray],
    params: PhysicalParams,
    r: float,
    t: float | np.ndarray,
    w1: Callable[[float, np.ndarray], np.ndarray] | None,
    spec: QuadratureSpec,
) -> complex | np.ndarray:
    """The damped kernel convolutions of ita_assemble at one r for a time
    or an array of times, as one integral of (2 K0 + n H K1) v0 + 2 K1 v1
    per time, each node with one kernel evaluation.  The times are taken
    in groups of _TIME_GROUP.  A time whose convolution misses its
    tolerance raises ToleranceNotMet once every time is done, carrying
    the values and error estimates of all of them."""
    ts = np.asarray(t, dtype=float)
    shape = ts.shape
    ts = ts.ravel()
    total = np.zeros(ts.size, dtype=complex)
    err = np.zeros(ts.size)
    missed = np.zeros(ts.size, dtype=bool)
    # at t = 0, where phi(t) = 0, the convolutions are empty, and 0
    run = np.flatnonzero(ts > 0.0)
    for i in range(0, run.size, _TIME_GROUP):
        group = run[i:i + _TIME_GROUP]
        total[group], err[group], missed[group] = _ita_group(w0, params, r, ts[group], w1, spec)
    if missed.any():
        i = int(np.argmax(missed))
        more = int(missed.sum()) - 1
        raise ToleranceNotMet(
            f"kernel convolution at t={ts[i]}: err_est {err[i]:.3e} beyond tolerance, "
            f"value {abs(total[i]):.3e}" + (f", and {more} more of {ts.size}" if more else ""),
            value=_shaped(total, shape),
            err_est=_shaped(err, shape, float),
        )
    return _shaped(total, shape)


def ita_assemble(
    wave_solution: Callable[[float, np.ndarray], np.ndarray],
    params: PhysicalParams,
    r: float,
    t: float | np.ndarray,
    wave_solution_1: Callable[[float, np.ndarray], np.ndarray] | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex | np.ndarray:
    """Assemble the field value at one r from flat-space wave solutions,
    for a time t or a 1-d array of times (an array of values).

    wave_solution(r, s) must be the wave evolution of the initial data and
    wave_solution_1 that of the initial velocity (each with zero partner
    velocity); both take an array of times s and return an array of its
    shape.  The result is

        e^{-(n-1)H t/2} v0(r, phi(t))
        + e^{-n H t/2} int_0^{phi(t)} [2 K0 + n H K1](s, t) v0(r, s) ds
        + 2 e^{-n H t/2} int_0^{phi(t)} K1(s, t) v1(r, s) ds.

    The two convolutions are one integral per time, and the integrals of
    all times are one engine pass: each pass makes one kernel evaluation
    and one batch of blocks per profile for all its nodes.  At late times
    (e^{-H t} < 0.05) the part near the light cone, s > 0.7/H, is taken in
    the endpoint parametrization H s = 1 - xi e^{-H t}: geometric panels in
    xi, those of all late times integrated in one more pass.  The times go
    through in groups of a fixed size, which bounds each pass.  A miss at
    any time raises ToleranceNotMet carrying every time's convolution
    values and error estimates.
    """
    _check_point(None, params, r, t)
    ts = np.asarray(t, dtype=float)
    h = params.H
    lead = np.array([math.exp(-0.5 * (params.n - 1) * h * s) for s in ts.flat]) * wave_solution(
        r, np.array([phi_of_t(s, h) for s in ts.flat])
    )
    return _shaped(lead, ts.shape) + _ita_integrals(
        wave_solution, params, r, t, wave_solution_1, spec
    )


def ita_remainder(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float | np.ndarray,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex | np.ndarray:
    """Kernel-convolution part of the radial field (assembly minus the
    damped traveling term) at one r, for a time t or a 1-d array of times;
    this is the piece whose late-time envelope the decay machinery
    classifies."""
    _check_point(mode, params, r, t)
    data0 = _blocks(mode.f0, spec, spectral=False)[0]
    data1 = None if mode.f1 is None else _blocks(mode.f1, spec, spectral=False)[0]
    return _ita_integrals(data0, params, r, t, data1, spec)


# ---------------------------------------------------------------------------
# Point evaluators


def _field(mode: ModeState, params: PhysicalParams, r: float, t: float, theta: float,
           phi: float, spec: QuadratureSpec, spectral: bool) -> complex:
    """Y times ita_assemble of the data blocks of f0 and f1."""
    _check_point(mode, params, r, t)
    y = spherical_harmonic(mode.ell, mode.m, theta, phi)
    data0 = _blocks(mode.f0, spec, spectral)[0]
    data1 = None if mode.f1 is None else _blocks(mode.f1, spec, spectral)[0]
    return y * ita_assemble(data0, params, r, t, data1, spec=spec)


def _huygens(mode: ModeState, params: PhysicalParams, r: float, t: float, theta: float,
             phi: float, spec: QuadratureSpec, spectral: bool) -> complex:
    """Y e^{-H t} [data0 + H velocity0 + velocity1] at the time phi(t)."""
    if params.n != 3:
        raise InvalidParam("collapsing-mass forms are specific to n = 3")
    if not params.is_huygensian:
        raise InvalidParam(
            f"m={params.m} is not the collapsing mass sqrt(2)*H={math.sqrt(2) * params.H}"
        )
    _check_point(mode, params, r, t, expanding=False)
    h = params.H
    pt = phi_of_t(t, h)
    y = spherical_harmonic(mode.ell, mode.m, theta, phi)
    data0, velocity0 = _blocks(mode.f0, spec, spectral)
    v = data0(r, pt) + h * velocity0(r, pt)
    if mode.f1 is not None:
        v += _blocks(mode.f1, spec, spectral)[1](r, pt)
    return y * math.exp(-h * t) * v


def field_riemann(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Field value at (r, t, theta, phi): quadrature wave blocks under the
    assembly formula (ita_assemble)."""
    return _field(mode, params, r, t, theta, phi, spec, spectral=False)


def field_riemann_huygens(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Collapsing-mass field from quadrature wave blocks: e^{-H t}
    [v0(phi(t)) + int_0^{phi(t)} (H v0 + v1)(s) ds] times the angular
    factor, each time integral taken by adaptive quadrature."""
    return _huygens(mode, params, r, t, theta, phi, spec, spectral=False)


def field_hankel(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Field value at (r, t, theta, phi): spectral wave blocks under the
    assembly formula, all nodes of a convolution pass in one block batch."""
    return _field(mode, params, r, t, theta, phi, spec, spectral=True)


def field_hankel_huygens(
    mode: ModeState,
    params: PhysicalParams,
    r: float,
    t: float,
    theta: float = 0.0,
    phi: float = 0.0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Collapsing-mass field from spectral wave blocks: the time integral
    of the cos-type block is carried out in closed form, leaving sin-type
    blocks

        e^{-H t} (1/sqrt r) [ int fhat0 cos(lam phi(t)) J lam dlam
            + int (H fhat0 + fhat1)(lam) sin(lam phi(t)) J dlam ].
    """
    return _huygens(mode, params, r, t, theta, phi, spec, spectral=True)


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
    form (Laplace-type integral of each Laguerre monomial).
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
    try:
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
        hat = _pionic_hat(c, mu, k, ell)
    except OverflowError:
        raise DomainError(f"n_quantum={n_quantum}: Laguerre coefficients overflow") from None

    def func(x):
        return c * x ** (mu - 0.5) * np.exp(-0.5 * x) * assoc_laguerre(k, two_mu, x)

    return RadialProfile(func=func, mu=mu, parity_ell=ell, hankel=hat)


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
    sampler: Callable[[np.ndarray], np.ndarray],
    t_window: tuple[float, float],
    n_samples: int,
    params: PhysicalParams | None = None,
    fit_poly_power: bool = False,
    discard_fraction: float = 0.0,
) -> DecayReport:
    """Least-squares fit of log|sampler(t)| to a + b t (+ p log(1+t)).

    The sampler is called once, with the 1-d array of the n_samples
    equally spaced times of t_window, and returns their values (real or
    complex) in an array of the same shape; any other shape raises
    InvalidParam.

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
    mags = np.abs(np.asarray(sampler(ts)))
    if mags.shape != ts.shape:
        raise InvalidParam(
            f"the sampler must return one value per time: shape {mags.shape} for {ts.shape}"
        )
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
