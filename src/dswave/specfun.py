"""Special-function substrate: Gauss hypergeometric 2F1 with complex
parameters and real argument, half-integer Bessel J, associated Laguerre
polynomials and spherical harmonics, on a native complex gamma and
digamma.

Everything here is pure 64-bit floating point with numpy alone; its
constants and the extended-precision reference values used by the test
suite come from a separate dev-only tool.  2F1, half-integer Bessel J and
the Laguerre polynomials take scalars or arrays of their argument and
return the same.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DivergentSeries, DomainError, InvalidParam

__all__ = [
    "hyp2f1",
    "bessel_j_half",
    "bessel_trig_split",
    "assoc_laguerre",
    "legendre_p",
    "spherical_harmonic",
]

# Nonpositive-integer detection: ell arrives exact, so the polynomial branch
# must fire deterministically; 1e-12 on both real distance and imaginary size.
_INT_TOL = 1e-12
# Integer detection for c-a-b in the z -> 1-z transform (the huygensian case
# has c-a-b = 2M/H exactly integer; nearby parameters snap to the log branch).
_CAB_TOL = 1e-8
_SERIES_EPS = 1e-16
_SERIES_MAX_TERMS = 2000
_SERIES_CUT = 0.95
# arguments per block of a series evaluation: a block is summed to the
# length its largest |z| needs
_SERIES_BLOCK = 256
# a Gauss series whose largest term exceeds its sum by more than this has
# lost more than 7 of its 16 digits to cancellation (tier-1 peaks at 7e4)
_CANCEL_MAX = 1e7


# ---------------------------------------------------------------------------
# Gamma and digamma

# Lanczos (1964) with G. R. Pugh's (2004) choice n = 10, r = 10.900511:
# Gamma(x+1) = 2 sqrt(e/pi) ((x+r+1/2)/e)^(x+1/2) NUM(x)/DEN(x), where
# DEN(x) = (x+1)...(x+10).  Every NUM coefficient is positive, so the
# ratio does not cancel on Re x >= -1/2 (the sum of partial fractions
# d_0 + sum d_k/(x+k) loses up to 8e-14 to cancellation at Re x ~ 6).
# NUM and DEN are printed by tools/gen_oracle_values.py.
_LANCZOS_R = 10.900511
_LANCZOS_PRE = 2.0 * math.sqrt(math.e / math.pi)
_LANCZOS_NUM = (
    952457.957557544, 832673.7273135998, 327584.79448459303, 76372.3328868775,
    11684.895852801732, 1225.925008066776, 89.31974325114439, 4.4625299543176595,
    0.14631571834485183, 0.002842914597947804, 2.4857408913875355e-05,
)
_LANCZOS_DEN = (
    3628800.0, 10628640.0, 12753576.0, 8409500.0, 3416930.0, 902055.0,
    157773.0, 18150.0, 1320.0, 55.0, 1.0,
)
# digamma: upward recurrence to Re z >= _PSI_SHIFT, then the asymptotic
# series ln z - 1/(2z) - sum_k B_2k / (2k z^2k) (DLMF 5.11.2), whose
# coefficients B_2k/(2k), k = 1..8, are these; the next term is < 3e-18
_PSI_SHIFT = 10.0
_PSI_ASYMPT = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160,
)


def _gamma(z: complex) -> complex:
    """Gamma(z) for complex z: the Lanczos rational form on Re z >= 1/2 and
    the reflection Gamma(z) = pi / (sin(pi z) Gamma(1-z)) below it.  At a
    pole, and where |Gamma| exceeds binary64, the value is inf + 0j, so
    dividing by it gives 0: divide by each Gamma in turn, never by a
    product of them."""
    if z.real < 0.5:
        k = round(z.real)
        # sin(pi z) from the exact remainder z - k, so the poles are exact
        s = cmath.sin(math.pi * (z - k))
        if s == 0.0:
            return complex(math.inf, 0.0)
        return (-math.pi if k % 2 else math.pi) / s / _gamma(1.0 - z)
    x = z - 1.0
    t = (x + (_LANCZOS_R + 0.5)) / math.e
    try:
        # t^(x+1/2) as the square of t^((x+1/2)/2): t^(x+1/2) alone
        # overflows on 168 < Re x < 171, where Gamma is still finite
        h = t ** (0.5 * x + 0.25)
    except OverflowError:
        return complex(math.inf, 0.0)
    g = _LANCZOS_PRE * polyval_ascending(_LANCZOS_NUM, x) / polyval_ascending(_LANCZOS_DEN, x)
    g = g * h * h
    return complex(math.inf, 0.0) if cmath.isinf(g) else g


def _digamma(z: np.ndarray) -> np.ndarray:
    """psi(z) elementwise on a real or complex array, away from the poles
    z = 0, -1, -2, ...: upward recurrence and the asymptotic series, after
    the reflection psi(z) = psi(1-z) - pi cot(pi z) on Re z < 0, which
    keeps the recurrence within 10 steps."""
    z = np.asarray(z)
    neg = z.real < 0.0
    if neg.any():
        out = _digamma(np.where(neg, 1.0 - z, z))
        k = np.round(z.real[neg])
        out[neg] -= np.pi / np.tan(np.pi * (z[neg] - k))
        return out
    acc = np.zeros_like(z, dtype=np.result_type(z, 1.0))
    w = acc + z
    low = w.real < _PSI_SHIFT
    while low.any():
        acc[low] -= 1.0 / w[low]
        w[low] += 1.0
        low = w.real < _PSI_SHIFT
    u = 1.0 / (w * w)
    return acc + np.log(w) - 0.5 / w - u * polyval_ascending(_PSI_ASYMPT, u)


def _near_int(w: complex, tol: float) -> int | None:
    """Return k if w is within tol of the integer k, else None."""
    k = round(w.real)
    if abs(w.real - k) <= tol and abs(w.imag) <= tol:
        return k
    return None


def _nonpositive_int(w: complex, tol: float = _INT_TOL) -> int | None:
    k = _near_int(w, tol)
    return k if k is not None and k <= 0 else None


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """Rows z^0 .. z^(n-1)."""
    p = np.empty((n, z.size))
    p[0] = 1.0
    p[1:] = z
    np.cumprod(p[1:], axis=0, out=p[1:])
    return p


def _dot(coef: np.ndarray, p: np.ndarray) -> np.ndarray:
    # complex coefficients against real powers: large blocks without the
    # complex promotion of p (4x faster at 700 x 256), small ones in one
    # call (3x faster at 30 x 1)
    if p.size <= 4096:
        return coef @ p
    return coef.real @ p + 1j * (coef.imag @ p)


_K = np.arange(_SERIES_MAX_TERMS)
_LN_CUT = math.log(0.1 * _SERIES_EPS)


def _series_terms(log_bound: list[float], xmax: float) -> int:
    """Terms until the bound on |c_k| xmax^k stays below 1e-17, at least 3:
    the first guess of a series length, which the tail check confirms."""
    if xmax <= 0.0:
        return 3
    lnx = math.log(xmax)
    # the bound is nonincreasing in k: bisect for its first crossing
    lo, hi = 0, len(log_bound)
    while lo < hi:
        mid = (lo + hi) // 2
        if log_bound[mid] + mid * lnx < _LN_CUT:
            hi = mid
        else:
            lo = mid + 1
    return min(_SERIES_MAX_TERMS, max(3, lo + 2))


def _tail_bound(coef: np.ndarray) -> list[float]:
    # log of max_{j >= k} |c_j|, as a list for cheap indexing
    with np.errstate(divide="ignore"):
        return np.maximum.accumulate(np.log(np.abs(coef))[::-1])[::-1].tolist()


@lru_cache(maxsize=128)
def _gauss_coeffs(a: complex, b: complex, c: complex) -> tuple[np.ndarray, ...]:
    """(a)_k (b)_k / ((c)_k k!) for k < _SERIES_MAX_TERMS, their magnitudes,
    their running maximum, and the log of their largest magnitude from k on."""
    k = _K[:-1]
    # large |a b| (heavy kernel masses) overflow; _gauss_series refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        coef = np.concatenate([[1.0 + 0.0j], np.cumprod(ratios)])
    mag = np.abs(coef)
    return coef, mag[:, None], np.maximum.accumulate(mag), _tail_bound(coef)


def _blocked_series(rows: np.ndarray, bound: list[float], z: np.ndarray, accept):
    """Power series sum_k rows[j, k] z^k at every argument, in blocks sorted
    by |z|.  A block is cut at the length its largest |z| needs and doubled
    until accept(sums, powers, idx, n) returns its values (None while the
    truncation check fails)."""
    if z.size <= _SERIES_BLOCK:
        return _series_block(rows, bound, z, accept, slice(None))
    out = np.empty(z.size, dtype=complex)
    order = np.argsort(np.abs(z))
    for lo in range(0, z.size, _SERIES_BLOCK):
        idx = order[lo:lo + _SERIES_BLOCK]
        out[idx] = _series_block(rows, bound, z[idx], accept, idx)
    return out


def _series_block(rows, bound, zb, accept, idx) -> np.ndarray:
    zmax = float(np.abs(zb).max())
    n = _series_terms(bound, zmax)
    while True:
        p = _powers(zb, n)
        values = accept(_dot(rows[:, :n], p), p, idx, n)
        if values is not None:
            return values
        if n == _SERIES_MAX_TERMS:
            raise DivergentSeries(
                f"2F1 series did not converge after {n} terms (|z| up to {zmax})"
            )
        n = min(2 * n, _SERIES_MAX_TERMS)


def _gauss_series(a: complex, b: complex, c: complex, z: np.ndarray) -> np.ndarray:
    """Plain Gauss series sum_{k} (a)_k(b)_k/((c)_k k!) z^k for |z| < 1,
    stopped where two consecutive terms are below 1e-16 of the sum;
    DivergentSeries where the coefficients overflow, or where the largest
    term exceeds the sum by more than _CANCEL_MAX."""
    coef, mag, top, bound = _gauss_coeffs(a, b, c)
    if not math.isfinite(bound[0]):
        raise DivergentSeries(f"2F1({a}, {b}; {c}) series coefficients overflow")

    def accept(sums, p, idx, n):
        s = np.abs(sums[0])
        if not (mag[n - 2:n] * np.abs(p[-2:]) <= _SERIES_EPS * s).all():
            return None
        # |z| < 1, so no term of the n summed exceeds top[n - 1]: the terms
        # themselves are looked at only where that bound allows the loss
        if top[n - 1] > _CANCEL_MAX * s.min():
            big = (mag[:n] * np.abs(p)).max(axis=0)
            if not (big <= _CANCEL_MAX * s).all():
                raise DivergentSeries(f"2F1 series cancels: terms up to {big.max():.3g}")
        return sums[0]

    return _blocked_series(coef[None], bound, z, accept)


def _polynomial_sum(k: int, b: complex, c: complex, z: np.ndarray) -> np.ndarray:
    # Terminating series for a = -k; valid for any finite z.
    coef = _gauss_coeffs(complex(k), b, c)[0][: 1 - k]
    return _dot(coef, _powers(z, 1 - k))


@lru_cache(maxsize=64)
def _log_coeffs(a: complex, b: complex, m: int) -> tuple[np.ndarray, list[float]]:
    """Rows c_n = (a+m)_n (b+m)_n / (n! (n+m)!) and c_n times the digamma
    part psi(n+1) + psi(n+m+1) - psi(a+n+m) - psi(b+n+m) of the log-case
    bracket, and the log of the largest |c_j| from n on."""
    n = _K
    ratios = (a + m + n[:-1]) * (b + m + n[:-1]) / ((n[:-1] + 1.0) * (n[:-1] + m + 1.0))
    c = np.concatenate([[1.0 + 0.0j], np.cumprod(ratios)]) / math.factorial(m)
    psi = (
        _digamma(n + 1.0)
        + _digamma(n + m + 1.0)
        - _digamma(a + n + m)
        - _digamma(b + n + m)
    )
    return np.stack([c, c * psi]), _tail_bound(c)


@lru_cache(maxsize=64)
def _log_case_coeffs(a: complex, b: complex, m: int) -> tuple[complex, complex]:
    """Gamma ratios of the log case: Gamma(m) Gamma(a+b+m) / (Gamma(a+m)
    Gamma(b+m)) before its finite part and -(-1)^m Gamma(a+b+m) /
    (Gamma(a) Gamma(b)) before its log part."""
    g = _gamma(a + b + m)
    finite = _gamma(complex(m)) * g / _gamma(a + m) / _gamma(b + m) if m > 0 else 0j
    return finite, -((-1.0) ** m) * g / _gamma(a) / _gamma(b)


def _log_case(a: complex, b: complex, m: int, x: np.ndarray) -> np.ndarray:
    """2F1(a, b; a+b+m; z) for integer m >= 0 via the logarithmic expansion.

    x = 1-z, 0 < x <= 0.05 in practice.  Classical formula (equivalent to the
    c-a-b integer case of the connection formulas at z=1).
    """
    coef, lead = _log_case_coeffs(a, b, m)
    res = np.zeros(x.size, dtype=complex)
    if m > 0:
        # finite part: sum_{n<m} (a)_n(b)_n/(n!(1-m)_n) x^n
        terms = [1.0 + 0.0j]
        for n in range(m - 1):
            terms.append(terms[-1] * (a + n) * (b + n) / ((n + 1) * (1 - m + n)))
        res += coef * _dot(np.array(terms), _powers(x, m))
    # logarithmic part
    if lead == 0.0:
        # 1/Gamma at a pole of Gamma: the whole log part vanishes
        return res
    lx = np.log(x)
    rows, bound = _log_coeffs(a, b, m)

    def accept(sums, p, idx, n):
        s = lx[idx] * sums[0] - sums[1]
        # convergence judged on |term|, not the bracket (which can vanish)
        last = np.abs(rows[0, n - 1]) * p[-1] * (np.abs(lx[idx]) + 8.0)
        return s if (last <= _SERIES_EPS * np.abs(s)).all() else None

    return res + lead * x**m * _blocked_series(rows, bound, x, accept)


@lru_cache(maxsize=128)
def _connection_coeffs(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Gamma ratios of the two-term z -> 1-z connection formula, w = c-a-b:
    Gamma(c) Gamma(w) / (Gamma(c-a) Gamma(c-b)) and
    Gamma(c) Gamma(-w) / (Gamma(a) Gamma(b))."""
    w = c - a - b
    g = _gamma(c)
    return (
        g * _gamma(w) / _gamma(c - a) / _gamma(c - b),
        g * _gamma(-w) / _gamma(a) / _gamma(b),
    )


def _transform_z_to_1mz(a: complex, b: complex, c: complex, x: np.ndarray) -> np.ndarray:
    """2F1 near z=1 via connection formulas; x = 1-z computed by the caller."""
    w = c - a - b
    m = _near_int(w, _CAB_TOL)
    if m is None:
        # generic two-term connection formula
        g1, g2 = _connection_coeffs(a, b, c)
        t1 = g1 * _gauss_series(a, b, 1 - w, x)
        t2 = g2 * np.exp(w * np.log(x)) * _gauss_series(c - a, c - b, 1 + w, x)
        return t1 + t2
    if m < 0:
        # Euler reflection turns c-a-b = -|m| into +|m|, then the log case
        return np.exp(w * np.log(x)) * _transform_z_to_1mz(c - a, c - b, c, x)
    return _log_case(a, b, m, x)


def _hyp2f1(a: complex, b: complex, c: complex, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    # branch dispatch on flat arrays; x holds 1 - z
    ka = _nonpositive_int(a)
    kb = _nonpositive_int(b)
    if ka is not None or kb is not None:
        if ka is not None and kb is not None:
            k = max(ka, kb)
            other = b if k == ka else a
        elif ka is not None:
            k, other = ka, b
        else:
            k, other = kb, a
        return _polynomial_sum(k, other, c, z)

    series = np.abs(z) <= _SERIES_CUT
    if series.all():
        return _gauss_series(a, b, c, z)
    out = np.empty(z.size, dtype=complex)
    if series.any():
        out[series] = _gauss_series(a, b, c, z[series])
    pfaff = z < -_SERIES_CUT
    if pfaff.any():
        # Pfaff reflection: argument z/(z-1) lands in (0, 1); for very
        # negative z it approaches 1, so reroute through the full dispatch
        # with the exact 1 - z/(z-1) = 1/(1-z)
        zn = z[pfaff]
        inner = _hyp2f1(a, c - b, c, zn / (zn - 1.0), 1.0 / (1.0 - zn))
        out[pfaff] = np.exp(-a * np.log(1.0 - zn)) * inner
    near = z > _SERIES_CUT
    if near.any():
        # for z rounding to 1.0 the caller-supplied complement still
        # resolves the argument; only a nonpositive complement is divergent
        xn = x[near]
        if (xn <= 0.0).any():
            raise DivergentSeries(f"2F1 diverges for z={float(z[near][xn <= 0.0][0])} >= 1")
        out[near] = _transform_z_to_1mz(a, b, c, xn)
    return out


def hyp2f1(
    a: complex,
    b: complex,
    c: complex,
    z,
    *,
    one_minus_z=None,
):
    """Gauss hypergeometric function 2F1(a,b;c;z) for real z < 1.

    Parameters
    ----------
    a, b, c : complex
        Parameters; c must not be a nonpositive integer.
    z : float or array of float
        Real argument; an array gives an array of values, a scalar a
        complex.  Any finite z is accepted when a or b is a nonpositive
        integer (terminating polynomial); otherwise z < 1, with the direct
        series for |z| <= 0.95, the z -> 1-z connection formulas on
        (0.95, 1) and the Pfaff reflection for z < -0.95.
    one_minus_z : float or array, optional
        Exact value of 1-z when the caller can compute it without
        cancellation (the kernel evaluations can); used by the z -> 1-z
        transform and as the Euler/log power base.

    Notes
    -----
    When c-a-b is within 1e-8 of an integer the transform switches to the
    logarithmic-case expansion; parameters between ~1e-8 and ~1e-6 from that
    set lose accuracy near z = 1 through cancellation of the two generic
    connection terms.  Series coefficients are cached per parameter set.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    zs = np.asarray(z, dtype=float)
    flat = zs.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("z must be finite")
    if _nonpositive_int(c) is not None:
        raise InvalidParam(f"c={c} is a nonpositive integer (2F1 pole)")
    if one_minus_z is None:
        x = 1.0 - flat
    else:
        x = np.asarray(one_minus_z, dtype=float)
        x = (x if x.shape == zs.shape else np.broadcast_to(x, zs.shape)).reshape(-1)
    out = _hyp2f1(a, b, c, flat, x)
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


# ---------------------------------------------------------------------------
# Half-integer Bessel functions


def _sph_jn_trig(ell: int, z):
    # closed trig forms, ell <= 2
    s, co = np.sin(z), np.cos(z)
    if ell == 0:
        return s / z
    if ell == 1:
        return s / (z * z) - co / z
    return (3.0 / (z * z * z) - 1.0 / z) * s - 3.0 * co / (z * z)


def _sph_jn_series(ell: int, z):
    # ascending series, cancellation-free; used for z < 1 where the trig
    # forms subtract nearly equal 1/z^k terms
    pref = np.ones_like(z)
    for n in range(1, ell + 1):
        pref = pref * z / (2 * n + 1)
    w = -0.5 * z * z
    term = np.ones_like(z)
    s = np.ones_like(z)
    for k in range(1, 40):
        term = term * w / (k * (2 * ell + 2 * k + 1))
        s = s + term
        if (np.abs(term) <= 1e-17 * np.abs(s)).all():
            break
    return pref * s


def _sph_jn_up(ell: int, z):
    # upward recurrence, stable for z > nu
    jm, j = _sph_jn_trig(0, z), _sph_jn_trig(1, z)
    for n in range(1, ell):
        jm, j = j, (2 * n + 1) / z * j - jm
    return j


def _sph_jn_miller(ell: int, z: float) -> float:
    # downward (Miller) recurrence with normalization against j0 or j1;
    # upward is unstable for z < nu.
    nstart = ell + 25 + int(z)
    jp = 0.0
    j = 1e-30
    out = 0.0
    for n in range(nstart, 0, -1):
        jm = (2 * n + 1) / z * j - jp
        jp, j = j, jm
        if n - 1 == ell:
            out = j
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            out *= 1e-250
    # j now holds the unnormalized j0, jp the unnormalized j1
    j0 = math.sin(z) / z
    if abs(j0) > 0.1 / (1.0 + z):
        scale = j0 / j
    else:
        # near a zero of sin z / z; normalize against j1 instead
        j1 = math.sin(z) / (z * z) - math.cos(z) / z
        scale = j1 / jp
    return out * scale


def bessel_j_half(ell: int, z):
    """Bessel function of half-integer order, J_{ell+1/2}(z), for z > 0
    (scalar or array)."""
    if ell < 0 or ell != int(ell):
        raise InvalidParam(f"ell must be a nonnegative integer, got {ell}")
    zs = np.asarray(z, dtype=float)
    if not (zs > 0.0).all():
        raise DomainError(f"bessel_j_half requires z > 0, got {z}")
    ell = int(ell)
    flat = zs.ravel()
    j = np.empty(flat.shape)
    small = flat < 1.0
    j[small] = _sph_jn_series(ell, flat[small])
    if ell <= 2:
        j[~small] = _sph_jn_trig(ell, flat[~small])
    else:
        up = ~small & (flat > ell + 0.5)
        j[up] = _sph_jn_up(ell, flat[up])
        miller = ~small & ~up
        j[miller] = [_sph_jn_miller(ell, float(v)) for v in flat[miller]]
    out = np.sqrt(2.0 * flat / math.pi) * j
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


@lru_cache(maxsize=None)
def bessel_trig_split(ell: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients (ascending in u = 1/x) of the exact trig split

        x * j_ell(x) = A(u) sin x + B(u) cos x.

    A has degree ell, B degree ell-1; from the three-term recurrence
    P_{n+1} = (2n+1) u P_n - P_{n-1} applied to both coefficient polynomials.
    Well conditioned for x comfortably above ell (the tail-side regime).
    """
    if ell < 0:
        raise InvalidParam("ell must be >= 0")
    a_prev, b_prev = [1.0], [0.0]
    if ell == 0:
        return tuple(a_prev), tuple(b_prev)
    a_cur, b_cur = [0.0, 1.0], [-1.0]
    for n in range(1, ell):
        fac = 2 * n + 1

        def step(cur: list[float], prev: list[float]) -> list[float]:
            nxt = [0.0] * (len(cur) + 1)
            for i, ci in enumerate(cur):
                nxt[i + 1] += fac * ci
            for i, pi in enumerate(prev):
                nxt[i] -= pi
            return nxt

        a_cur, a_prev = step(a_cur, a_prev), a_cur
        b_cur, b_prev = step(b_cur, b_prev), b_cur
    return tuple(a_cur), tuple(b_cur)


def polyval_ascending(coeffs: tuple[float, ...], u):
    """Horner evaluation of sum_k coeffs[k] u^k (u scalar or array)."""
    acc = 0.0
    for ck in reversed(coeffs):
        acc = acc * u + ck
    return acc


# ---------------------------------------------------------------------------
# Laguerre polynomials and spherical harmonics


def assoc_laguerre(k: int, alpha: float, x):
    """Associated Laguerre polynomial L_k^alpha(x) by three-term recurrence
    (x scalar or array)."""
    if k < 0 or k != int(k):
        raise InvalidParam(f"k must be a nonnegative integer, got {k}")
    if alpha <= -1.0:
        raise InvalidParam(f"alpha must be > -1, got {alpha}")
    xs = np.asarray(x, dtype=float)
    if (xs < 0.0).any():
        raise DomainError(f"x must be >= 0, got {x}")
    k = int(k)
    if k == 0:
        return np.ones_like(xs)[()]
    lm, l = 1.0, 1.0 + alpha - xs
    for j in range(1, k):
        lm, l = l, ((2 * j + 1 + alpha - xs) * l - (j + alpha) * lm) / (j + 1)
    return l[()]


def legendre_p(ell: int, x, m: int = 0):
    """Associated Legendre function P_ell^m(x), 0 <= m <= ell, with the
    Condon-Shortley phase: upward recurrence in the degree from P_m^m =
    (-1)^m (2m-1)!! (1-x^2)^{m/2}.  x may be an array when m = 0."""
    p = 1.0
    if m > 0:
        somx2 = math.sqrt(max(1.0 - x * x, 0.0))
        for j in range(m):
            p *= -(2 * j + 1) * somx2
    if ell > m:
        pm1, p = p, x * (2 * m + 1) * p
        for n in range(m + 2, ell + 1):
            pm1, p = p, ((2 * n - 1) * x * p - (n + m - 1) * pm1) / (n - m)
    return p


def spherical_harmonic(ell: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_{ell,m}(theta, phi).

    Quantum-mechanical (Condon-Shortley) convention; unit L^2 norm over the
    sphere and eigenrelation Delta_{S^2} Y = -ell(ell+1) Y.
    """
    if ell < 0 or ell != int(ell):
        raise InvalidParam(f"ell must be a nonnegative integer, got {ell}")
    if abs(m) > ell:
        raise IndexError(f"|m|={abs(m)} exceeds ell={ell}")
    ell, m = int(ell), int(m)
    mm = abs(m)
    p = legendre_p(ell, math.cos(theta), mm)
    # (ell-|m|)!/(ell+|m|)! as the integer product of ell-|m|+1 ... ell+|m|:
    # the factorials themselves leave binary64 from ell = 171
    norm = math.sqrt((2 * ell + 1) / math.prod(range(ell - mm + 1, ell + mm + 1)) / (4.0 * math.pi))
    y = norm * p * cmath.exp(1j * mm * phi)
    if m < 0:
        y = ((-1) ** mm) * y.conjugate()
    return y
