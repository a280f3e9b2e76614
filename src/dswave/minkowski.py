"""Flat-space radial wave solvers for a single angular mode.

The radial factor F(r, t) of a spherical wave with data F(r, 0) = f0(r),
F_t(r, 0) = f1(r) is built from two wave blocks per profile, which
``_blocks`` supplies in either of two realizations, each block one formula:

* quadrature -- ``wave_block``: traveling-wave average plus a polynomial
  tail integral; ``_kirchhoff_block``: Kirchhoff's formula, one integral;
* spectral   -- ``_hankel_block``: the profile's closed-form transform of
  half-integer order, then a semi-infinite oscillatory integral in the
  spectral variable.  A tabulated profile has no transform, so no
  spectral blocks.

``solve_riemann`` and ``solve_hankel`` evaluate F from the blocks of one
realization each, and ``dswave.desitter`` assembles its fields from the
same blocks.  ``solve_recursive`` is an independent check: explicit closed
forms with rational coefficients, ell <= 5, zero initial velocity.

``minkowski_kg`` adds the mass term through a Bessel-kernel time
convolution applied to the wave blocks.  All evaluators accept radii below
the light cone through the parity extension r^ell * F even.  Profiles, wave
blocks and spectral blocks take arrays, so the quadratures hand them whole
node sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParam, ToleranceNotMet, UnsupportedEll
from .quadrature import (
    DEFAULT_SPEC,
    LAMBDA_MAX,
    QuadratureSpec,
    integrate_batch,
    integrate_finite,
    integrate_oscillatory_batch,
)
# kept for the benchmark's tracer, which wraps this binding; nothing here calls it
from .quadrature import integrate_semi_infinite_oscillatory  # noqa: F401
from .specfun import assoc_laguerre, bessel_j_half, bessel_trig_split, legendre_p, polyval_ascending

__all__ = [
    "RadialProfile",
    "ModeState",
    "gaussian_profile",
    "scaled_profile",
    "tabulated_profile",
    "traveling_average",
    "wave_block",
    "solve_recursive",
    "solve_riemann",
    "solve_hankel",
    "minkowski_kg",
]


@dataclass(frozen=True)
class RadialProfile:
    """Radial data function with its parity extension.

    func is the bare profile on r > 0 and takes arrays; calls with negative
    arguments go through the extension F(-r) = (-1)^ell F(r) (r^ell F
    even).  The profile and r_f take scalars or arrays and return the
    same.  mu is the small-r exponent: F = O(r^{mu - 1/2}) as r -> 0+.
    hankel is the closed form of the order parity_ell + 1/2 transform
    (taking arrays too) that the spectral blocks require, or None.
    """

    func: Callable[[float], complex]
    mu: float
    parity_ell: int
    hankel: Callable[[float], complex] | None = None

    def __post_init__(self) -> None:
        if self.parity_ell < 0:
            raise InvalidParam("parity_ell must be >= 0")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        ax = np.abs(xs)
        pos = ax > 0.0
        if pos.all():
            v = np.array(self.func(ax), dtype=complex)
        else:
            v = np.zeros(xs.shape, dtype=complex)
            v[pos] = self.func(ax[pos])
            # x = 0: defined only when the small-r exponent allows a limit
            if self.mu <= 0.5:
                v[~pos] = self.func(ax[~pos])
        if self.parity_ell % 2:
            v = np.where(xs < 0.0, -v, v)
        return complex(v) if xs.ndim == 0 else v

    def r_f(self, x):
        """x * F(x) with its removable zero at x = 0 (x F = O(x^{mu+1/2}))."""
        xs = np.asarray(x, dtype=float)
        zero = xs == 0.0
        v = np.where(zero, 0.0, xs * self(np.where(zero, 1.0, xs)))
        return complex(v) if xs.ndim == 0 else v


@dataclass(frozen=True)
class ModeState:
    """One spherical-harmonic mode: angular indices and its radial data.

    f1 = None means zero initial velocity.
    """

    ell: int
    m: int
    f0: RadialProfile
    f1: RadialProfile | None = None

    def __post_init__(self) -> None:
        if self.ell < 0:
            raise InvalidParam("ell must be >= 0")
        if abs(self.m) > self.ell:
            raise InvalidParam(f"|m|={abs(self.m)} exceeds ell={self.ell}")
        if self.f0.parity_ell != self.ell:
            raise InvalidParam("f0 parity does not match the mode ell")
        if self.f1 is not None and self.f1.parity_ell != self.ell:
            raise InvalidParam("f1 parity does not match the mode ell")


def gaussian_profile(
    ell: int,
    sigma: float = 1.0,
    power: int | None = None,
    amplitude: complex = 1.0,
) -> RadialProfile:
    """Profile amplitude * r^power * exp(-sigma r^2), power defaulting to ell.

    power - ell must be even and nonnegative so that r^ell F is even and the
    profile is regular.  With nu = ell + 1/2, k = (power - ell)/2 and
    x = lam^2/(4 sigma), the transform of order nu is (DLMF 10.22.51)

        amplitude * k! lam^nu e^{-x} L_k^{(nu)}(x) / (2^{nu+1} sigma^{nu+k+1}),

    stored with all but the amplitude and L_k in one exponent; none is
    stored where the exponent's peak leaves binary64.
    """
    if sigma <= 0.0:
        raise InvalidParam("sigma must be positive")
    p = ell if power is None else power
    if p < 0 or (p - ell) % 2 or p < ell:
        raise InvalidParam(f"power={p} incompatible with ell={ell} parity")

    def func(x, _a=amplitude, _s=sigma, _p=p):
        return _a * x**_p * np.exp(-_s * x * x)

    nu, k = ell + 0.5, (p - ell) // 2
    log_c = math.lgamma(k + 1) - (nu + 1) * math.log(2.0) - (nu + k + 1) * math.log(sigma)
    # the exponent peaks at lam^2 = 2 nu sigma; 709.78 is ln of the largest binary64
    if log_c + 0.5 * nu * (math.log(2.0 * nu) + math.log(sigma) - 1.0) > 709.78:
        return RadialProfile(func=func, mu=p + 0.5, parity_ell=ell)
    # |L_k^nu(x)| <= binom(k + nu, k) (1 + x)^k: where that bound puts the
    # value below e^-746, which rounds to 0, L_k is not evaluated
    log_b = math.lgamma(k + nu + 1) - math.lgamma(k + 1) - math.lgamma(nu + 1)

    def hat(lam):
        lams = np.asarray(lam, dtype=float)
        x = lams * lams / (4.0 * sigma)
        with np.errstate(divide="ignore"):
            e = log_c + nu * np.log(lams) - x  # -inf at lam = 0
        live = e + log_b + k * np.log1p(x) > -746.0
        lag = assoc_laguerre(k, nu, np.where(live, x, 0.0))
        return amplitude * (np.exp(np.where(live, e, -np.inf)) * lag)

    return RadialProfile(func=func, mu=p + 0.5, parity_ell=ell, hankel=hat)


def scaled_profile(profile: RadialProfile, coef: complex) -> RadialProfile:
    """The profile multiplied by a constant (possibly complex) factor."""
    base_hat = profile.hankel
    return replace(
        profile,
        func=lambda x: coef * profile.func(x),
        hankel=None if base_hat is None else (lambda lam: coef * base_hat(lam)),
    )


def tabulated_profile(
    r_values,
    f_values,
    ell: int,
    mu: float | None = None,
) -> RadialProfile:
    """Cubic-spline profile through sampled (r, F) pairs, zero outside them."""
    # scipy is imported where it is used: importing dswave loads none of it
    from scipy.interpolate import CubicSpline

    r = np.asarray(r_values, dtype=float)
    f = np.asarray(f_values)
    if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0) or r[0] <= 0:
        raise InvalidParam("need >= 4 strictly increasing radii > 0")
    if f.shape != r.shape:
        raise InvalidParam("r and F arrays must have matching shapes")
    spline = CubicSpline(r, f)
    lo, hi = float(r[0]), float(r[-1])

    def func(x):
        return np.where((x < lo) | (x > hi), 0.0, spline(x))

    return RadialProfile(func=func, mu=ell + 0.5 if mu is None else mu, parity_ell=ell)


# ---------------------------------------------------------------------------
# Traveling-average + tail form


@lru_cache(maxsize=None)
def _tail_coeffs(ell: int) -> tuple[float, ...]:
    # coefficients of the terminating 2F1(1-ell, ell+2; 2; y), degree ell-1
    coeffs = []
    term = 1.0
    for k in range(ell):
        coeffs.append(term)
        term *= (1 - ell + k) * (ell + 2 + k) / ((2 + k) * (k + 1))
    return tuple(coeffs)


def traveling_average(profile: RadialProfile, r: float, t):
    """d'Alembert average [(r-t) F(r-t) + (r+t) F(r+t)] / (2 r), for a
    time t or an array of them; the remaining part of the wave solution is
    the mode's tail."""
    if r <= 0.0:
        raise DomainError(f"traveling_average requires r > 0, got {r}")
    return (profile.r_f(r - t) + profile.r_f(r + t)) / (2.0 * r)


def wave_block(
    profile: RadialProfile,
    ell: int,
    r: float,
    t,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Radial wave solution at (r, t) for data (profile, 0) on mode ell.

    Traveling-wave average of r*F plus the tail integral weighted by the
    degree ell-1 polynomial in y = (t^2 - (r-s)^2)/(4 r s).  The reflected
    part of the integration range for t > r cancels the [-(t-r), t-r]
    segment exactly (the integrand is odd under s -> -s there, combining
    the data parity with the reflection symmetry of the polynomial), so the
    tail is integrated over [|r-t|, r+t]; on that range y lies in [0, 1/2].

    t may be an array of times: the tails are then one batch of integrals,
    one per time, and the result an array of t's shape.
    """
    if r <= 0.0:
        raise DomainError(f"wave_block requires r > 0, got {r}")
    ts = np.asarray(t, dtype=float)
    if not (ts >= 0.0).all():
        raise DomainError(f"wave_block requires t >= 0, got {t}")
    flat = ts.ravel()
    out = traveling_average(profile, r, flat)
    run = np.flatnonzero(flat > 0.0) if ell > 0 else np.empty(0, dtype=int)
    if run.size:
        coeffs = _tail_coeffs(ell)
        tr = flat[run]

        def integrand(s: np.ndarray, k: np.ndarray) -> np.ndarray:
            # product form of t^2 - (r-s)^2; both factors >= 0 on [lo, hi]
            tk = tr[k]
            y = (tk - r + s) * (tk + r - s) / (4.0 * r * s)
            return profile(s) * polyval_ascending(coeffs, y)

        tail = integrate_batch(integrand, np.abs(r - tr), r + tr, spec).value
        out[run] -= 0.25 * ell * (ell + 1) * tr / (r * r) * tail
    return complex(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _kirchhoff_block(profile: RadialProfile, ell: int, r: float, t, spec: QuadratureSpec):
    """Radial wave solution at r > 0, t >= 0 for data (0, profile) on mode
    ell.  Kirchhoff's formula is t times the mean of the data over the
    sphere of radius t about the point; Funk-Hecke reduces that mean for
    one mode to a single integral over the radii the sphere crosses,

        V(r, t) = (1/2r) int_{|r-t|}^{r+t} s F(s) P_ell((r^2 + s^2 - t^2)/(2 r s)) ds.

    t may be an array of times: the integrals are then one batch, and the
    result an array of t's shape.
    """
    ts = np.asarray(t, dtype=float)
    tr = ts.ravel()

    def integrand(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        return s * profile(s) * legendre_p(ell, (r * r + s * s - tr[k] ** 2) / (2.0 * r * s))

    return integrate_batch(integrand, np.abs(r - ts), r + ts, spec).value / (2.0 * r)


def _check_mode(mode: ModeState) -> None:
    # the tail integrals near s = 0 converge only for mu > ell - 3/2
    if mode.f0.mu <= mode.ell - 1.5:
        raise InvalidParam(
            f"small-r exponent mu={mode.f0.mu} too weak for ell={mode.ell} "
            "(needs mu > ell - 3/2)"
        )


def solve_recursive(
    mode: ModeState,
    r: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Closed-form radial factor for ell <= 5, zero initial velocity.

    The tail reduces to moment integrals I_k = int F0(s) s^k ds over
    [|r-t|, r+t] (the s < 0 reflected part cancels by parity, as every
    k here has ell + k odd) with explicit polynomial-in-(r, t) weights.
    """
    if mode.ell > 5:
        raise UnsupportedEll(
            f"closed forms cover ell <= 5, got {mode.ell}; use solve_riemann"
        )
    if mode.f1 is not None:
        raise InvalidParam("closed forms cover zero initial velocity only")
    if r <= 0.0:
        raise DomainError(f"solve_recursive requires r > 0, got {r}")
    if t < 0.0:
        raise DomainError(f"solve_recursive requires t >= 0, got {t}")
    f0 = mode.f0
    ell = mode.ell
    lead = traveling_average(f0, r, t)
    if ell == 0 or t == 0.0:
        return lead
    lo, hi = abs(r - t), r + t

    def mom(k: int) -> complex:
        return integrate_finite(lambda s: f0(s) * s**k, lo, hi, spec).value

    r2, t2 = r * r, t * t
    if ell == 1:
        tail = -mom(0)
    elif ell == 2:
        tail = (-1.5 * (r2 - t2) * mom(-1) - 1.5 * mom(1)) / r
    elif ell == 3:
        tail = (
            -1.875 * (r2 - t2) ** 2 * mom(-2)
            - 0.25 * (9.0 * r2 - 15.0 * t2) * mom(0)
            - 1.875 * mom(2)
        ) / r2
    elif ell == 4:
        tail = -(
            (35.0 / 16.0) * (r2**3 - 3.0 * r2**2 * t2 + 3.0 * r2 * t2**2 - t2**3)
            * mom(-3)
            + (5.0 / 16.0) * (9.0 * r2**2 - 30.0 * r2 * t2 + 21.0 * t2**2) * mom(-1)
            + (5.0 / 16.0) * (9.0 * r2 - 21.0 * t2) * mom(1)
            + (35.0 / 16.0) * mom(3)
        ) / (r2 * r)
    else:
        tail = (
            (-315.0 * r2**4 + 1260.0 * r2**3 * t2 - 1890.0 * r2**2 * t2**2
             + 1260.0 * r2 * t2**3 - 315.0 * t2**4) / 128.0 * mom(-4)
            + (-105.0 * r2**3 + 525.0 * r2**2 * t2 - 735.0 * r2 * t2**2
               + 315.0 * t2**3) / 32.0 * mom(-2)
            + (-225.0 * r2**2 + 1050.0 * r2 * t2 - 945.0 * t2**2) / 64.0 * mom(0)
            + (315.0 * t2 - 105.0 * r2) / 32.0 * mom(2)
            - (315.0 / 128.0) * mom(4)
        ) / (r2 * r2)
    return lead + 0.5 * t / r2 * tail


# ---------------------------------------------------------------------------
# Spectral form


def _profile_transform(f: RadialProfile) -> Callable[[float], complex]:
    """The profile's closed-form transform, which the spectral blocks integrate."""
    if f.hankel is None:
        raise InvalidParam("the spectral blocks need the profile's closed-form transform, and "
                           "it has none in binary64 (tabulated, or a Gaussian that overflows)")
    return f.hankel


def _component_tail(
    gfun: Callable[[np.ndarray], np.ndarray],
    comps: list[tuple[float, float, str, tuple[float, ...]]],
    r: float,
    lam0: float,
    spec: QuadratureSpec,
) -> np.ndarray:
    """The trig components of the spectral tail, one value per
    (coef, freq, kind, poly) in comps:

        coef * int_{lam0}^inf g(lam) P(1/(r lam)) trig(freq lam) dlam.

    Every component takes one path.  Its trig factor is flat out to
    flat_end = pi/(4 freq), clipped to [lam0, lam_slow]; geometric panels
    lam0 2^j cover [lam0, flat_end], all of them one batch (most components
    oscillate from lam0 on and have none).  Where the oscillation starts
    below lam_slow, the component continues from flat_end on one ladder of
    phase-aligned half-period cells.  Each component has its own cap there:
    lambda_max, lifted to 3000 pi/(4 freq) for the near-DC ones, so that
    their first cells fit.  The components that stay flat to lam_slow
    (freq = 0, or indistinguishable from it) close with a power-law tail."""
    coef, freq, kind, polys = zip(*comps)
    freq = np.array(freq)
    is_sin = np.array(kind) == "sin"
    # sin(-f lam) = -sin(f lam), and a sin component of frequency 0 vanishes
    coef = np.where(is_sin & (freq < 0.0), -np.array(coef), coef)
    live = np.flatnonzero(~is_sin | (freq != 0.0))
    coef, freq, is_sin = coef[live], np.abs(freq[live]), is_sin[live]
    # ascending coefficients, zero-padded to one degree (Horner sees the
    # padding as leading zeros)
    deg = max(len(polys[i]) for i in live)
    cmat = np.array([list(polys[i]) + [0.0] * (deg - len(polys[i])) for i in live])

    def poly(k, u):
        p = 0.0
        for j in range(deg - 1, -1, -1):
            p = p * u + cmat[k, j]
        return p

    def integrand(lam: np.ndarray, k: np.ndarray) -> np.ndarray:
        w = freq[k] * lam
        return gfun(lam) * poly(k, 1.0 / (r * lam)) * np.where(is_sin[k], np.sin(w), np.cos(w))

    lam_slow = max(LAMBDA_MAX, 16.0 * lam0)
    with np.errstate(divide="ignore"):
        lam1 = math.pi / (4.0 * freq)  # the quarter-period point, inf at freq 0
    slow = freq < math.pi / (4.0 * lam0)
    flat_end = np.where(slow, np.minimum(lam1, lam_slow), lam0)

    edge = lam0 * 2.0 ** np.arange(math.ceil(math.log2(lam_slow / lam0)) + 1)
    own, j = np.nonzero(edge < flat_end[:, None])
    hi = np.minimum(2.0 * edge[j], flat_end[own])
    pan = integrate_batch(lambda lam, k: integrand(lam, own[k]), edge[j], hi, spec)
    n = live.size
    tail = np.bincount(own, pan.value.real, n) + 1j * np.bincount(own, pan.value.imag, n)

    closed = np.flatnonzero(lam1 >= lam_slow)
    if closed.size:
        # int_L^inf c lam^-p = env(L) L / (p-1), p measured from the envelope
        g0, g1 = gfun(np.array([lam_slow, 1.25 * lam_slow]))
        e0 = g0 * poly(closed, 1.0 / (r * lam_slow))
        a0, a1 = np.abs(e0), np.abs(g1 * poly(closed, 1.0 / (1.25 * r * lam_slow)))
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(a1 == 0.0, np.inf, np.log(a0 / a1) / math.log(1.25))
        bad = (a0 > 0.0) & (p <= 1.2)
        if bad.any():
            i = int(np.argmax(bad))
            raise ToleranceNotMet(
                f"spectral envelope decays like lam^-{p[i]:.2f}; tail "
                "correction unreliable",
                value=coef[closed[i]] * tail[closed[i]],
                err_est=np.bincount(own, pan.err_est, n)[closed[i]] + a0[i] * lam_slow,
            )
        add = (a0 > 0.0) & np.isfinite(p)
        tail[closed[add]] += e0[add] * lam_slow / (p[add] - 1.0)

    # every other component oscillates from flat_end on: the first cell edge
    # is the first zero of its trig factor beyond there
    osc = np.flatnonzero(lam1 < lam_slow)
    start, f = flat_end[osc], freq[osc]
    if (start + math.pi / f <= start).any():
        # a half-period below the float spacing: no cell edge can be placed
        raise ToleranceNotMet(f"tail frequency {f.max():.3g} unresolved at lam={start.max():.3g}")
    off = np.where(is_sin[osc], 0.0, 0.5)
    z1 = (np.ceil(start * f / math.pi - off) + off) * math.pi / f
    low = z1 <= start
    while low.any():
        z1 = np.where(low, z1 + math.pi / f, z1)
        low = z1 <= start
    tail[osc] += integrate_oscillatory_batch(
        lambda lam, k: integrand(lam, osc[k]),
        2.0 * math.pi / f,
        spec,
        start=start,
        first_boundary=z1,
        lambda_max=np.where(slow[osc], np.maximum(LAMBDA_MAX, 3000.0 * lam1[osc]), LAMBDA_MAX),
    ).value
    out = np.zeros(len(comps), dtype=complex)
    out[live] = coef * tail
    return out


def _hankel_block(
    fhat: Callable[[np.ndarray], np.ndarray],
    ell: int,
    r: float,
    omega,
    weight: str,
    spec: QuadratureSpec,
):
    """(1/sqrt r) int_0^inf fhat(lam) w(omega lam) J_{ell+1/2}(r lam) dlam,
    with weight "cos" carrying an extra lam factor (the data-type block) and
    "sin" none (the velocity-type block).

    Direct panels up to lam0 = max(40, 3(ell+2)/r); beyond that the Bessel
    factor splits exactly into sin/cos components with polynomial envelopes
    in 1/(r lam), the time weight is product-to-sum combined to frequencies
    r +- omega, and all components take _component_tail's one path:
    geometric panels where the trig factor is still flat, one oscillatory
    ladder with a cap per component, and a power-law closure at frequency 0.

    omega may be an array of times: the direct panels of all of them are
    then one batch of integrals, each block keeping its own panels and
    tolerances, their tail components share that one path, and the result
    is an array of omega's shape.
    """
    om = np.asarray(omega, dtype=float)
    flat = om.ravel()
    out = np.zeros(flat.size, dtype=complex)
    cos_w = weight == "cos"
    # the sin-weighted block vanishes at omega = 0
    run = np.arange(flat.size) if cos_w else np.flatnonzero(flat != 0.0)
    if not run.size:
        return complex(out[0]) if om.ndim == 0 else out.reshape(om.shape)
    w = flat[run]
    lam0 = max(40.0, 3.0 * (ell + 2) / r)
    fmax = r + np.abs(w)
    n_pan = np.minimum(np.maximum(1, (lam0 * fmax / (4.0 * math.pi)).astype(int) + 1), 600)
    lo, hi, owner = [], [], []
    for p in np.unique(n_pan):
        blocks = np.flatnonzero(n_pan == p)
        edges = lam0 * np.arange(p + 1) / p
        lo.append(np.tile(edges[:-1], blocks.size))
        hi.append(np.tile(edges[1:], blocks.size))
        owner.append(np.repeat(blocks, p))
    lo, hi, owner = np.concatenate(lo), np.concatenate(hi), np.concatenate(owner)

    def direct(lam: np.ndarray, k: np.ndarray) -> np.ndarray:
        # fhat and the Bessel factor depend on lam alone, and the first
        # pass of blocks with one panel count shares its abscissae:
        # evaluate them once per distinct abscissa
        u, inv = np.unique(lam, return_inverse=True)
        inv = inv.reshape(lam.shape)
        wl = w[owner[k]] * lam
        wv = np.cos(wl) if cos_w else np.sin(wl)
        v = fhat(u)[inv] * wv * bessel_j_half(ell, r * u)[inv]
        return v * lam if cos_w else v

    pan = integrate_batch(
        direct,
        lo,
        hi,
        spec,
        abs_tol=spec.abs_tol / (2.0 * n_pan[owner]),
    ).value
    total = np.bincount(owner, pan.real, w.size) + 1j * np.bincount(owner, pan.imag, w.size)

    # tail components: J_{ell+1/2}(x) = sqrt(2/(pi x)) (A(1/x) sin x + B(1/x) cos x)
    acoef, bcoef = bessel_trig_split(ell)
    pref = math.sqrt(2.0 / (math.pi * r))
    if cos_w:
        def g(lam):
            return fhat(lam) * pref * np.sqrt(lam)

        def comps(wj):
            return [
                (0.5, r + wj, "sin", acoef),
                (0.5, r - wj, "sin", acoef),
                (0.5, r + wj, "cos", bcoef),
                (0.5, r - wj, "cos", bcoef),
            ]
    else:
        def g(lam):
            return fhat(lam) * pref / np.sqrt(lam)

        def comps(wj):
            return [
                (0.5, r - wj, "cos", acoef),
                (-0.5, r + wj, "cos", acoef),
                (0.5, r + wj, "sin", bcoef),
                (-0.5, r - wj, "sin", bcoef),
            ]
    every = [c for wj in w.tolist() for c in comps(wj) if any(x != 0.0 for x in c[3])]
    tails = _component_tail(g, every, r, lam0, spec).reshape(w.size, -1)
    for j in range(tails.shape[1]):
        total += tails[:, j]
    out[run] = total / math.sqrt(r)
    return complex(out[0]) if om.ndim == 0 else out.reshape(om.shape)


# ---------------------------------------------------------------------------
# The blocks of both realizations


def _blocks(f: RadialProfile, spec: QuadratureSpec, spectral: bool):
    """The wave blocks of profile f on its mode, as functions of (r, s), s
    a time or an array of them: data, the solution for data (f, 0), and
    velocity, the solution for data (0, f).  Quadrature: wave_block and
    _kirchhoff_block.  Spectral: the "cos" and "sin" _hankel_block of f's
    closed-form transform; InvalidParam when f has none.  Module names are
    looked up when the blocks are called."""
    ell = f.parity_ell
    if spectral:
        fhat = _profile_transform(f)
        data = lambda r, s: _hankel_block(fhat, ell, r, s, "cos", spec)
        velocity = lambda r, s: _hankel_block(fhat, ell, r, s, "sin", spec)
    else:
        data = lambda r, s: wave_block(f, ell, r, s, spec)
        velocity = lambda r, s: _kirchhoff_block(f, ell, r, s, spec)
    return data, velocity


def _solve(mode: ModeState, r: float, t: float, spec: QuadratureSpec, spectral: bool) -> complex:
    """Radial factor at (r, t): f0's data block plus f1's velocity block."""
    if r <= 0.0 or t < 0.0:
        raise DomainError(f"flat-space solution requires r > 0 and t >= 0, got r={r}, t={t}")
    _check_mode(mode)
    v = _blocks(mode.f0, spec, spectral)[0](r, t)
    if mode.f1 is not None and t > 0.0:
        v += _blocks(mode.f1, spec, spectral)[1](r, t)
    return v


def solve_riemann(
    mode: ModeState,
    r: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Radial factor at (r, t) from the quadrature wave blocks."""
    return _solve(mode, r, t, spec, spectral=False)


def solve_hankel(
    mode: ModeState,
    r: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Radial factor at (r, t) from the spectral blocks: cos(lam t) weight
    with a lam factor on the f0 transform, sin(lam t) on the f1 one."""
    return _solve(mode, r, t, spec, spectral=True)


# ---------------------------------------------------------------------------
# Klein-Gordon in flat space


def minkowski_kg(
    mode: ModeState,
    m0: float,
    r: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Massive flat-space radial factor via Bessel-kernel time convolutions
    of the wave blocks:

        u = v0(t) - m0 t int_0^{pi/2} J_1(m0 t cos h) v0(t sin h) dh
                  +    t int_0^{pi/2} J_0(m0 t cos h) cos h v1(t sin h) dh

    (tau = t sin h removes the 1/sqrt(t^2 - tau^2) endpoint weight).  The
    massless limit reduces exactly to the wave solution.
    """
    if m0 < 0.0:
        raise InvalidParam(f"m0 must be >= 0, got {m0}")
    if r <= 0.0:
        raise DomainError(f"minkowski_kg requires r > 0, got {r}")
    if m0 == 0.0 or t == 0.0:
        return _solve(mode, r, t, spec, spectral=False)
    u = wave_block(mode.f0, mode.ell, r, t, spec)
    # kink of the blocks at tau = r maps to h = asin(r/t)
    kink = (math.asin(r / t),) if r < t else ()
    from scipy.special import j0 as _bessel_j0
    from scipy.special import j1 as _bessel_j1

    u -= m0 * t * integrate_finite(
        lambda h: _bessel_j1(m0 * t * np.cos(h))
        * wave_block(mode.f0, mode.ell, r, t * np.sin(h), spec),
        0.0,
        0.5 * math.pi,
        spec,
        points=kink,
    ).value
    if mode.f1 is not None:
        u += t * integrate_finite(
            lambda h: _bessel_j0(m0 * t * np.cos(h))
            * np.cos(h)
            * wave_block(mode.f1, mode.ell, r, t * np.sin(h), spec),
            0.0,
            0.5 * math.pi,
            spec,
            points=kink,
        ).value
    return u
