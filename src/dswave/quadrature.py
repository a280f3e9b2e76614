"""Adaptive quadrature on numpy arrays: finite intervals with declared
break points, and semi-infinite oscillatory integrals via half-period cells
with Euler-style acceleration of the alternating cell sums (Longman 1956),
a whole batch of them on one ladder of cells.

Every finite integral runs through one engine, ``quad``: QUADPACK's
21-point Kronrod rule with its embedded 10-point Gauss rule and error
heuristic (Piessens et al. 1983), bisected globally, so that one call
refines a whole batch of independent integrals in a single complex pass.
Each integral is refined to half its tolerance and then checked against
the full one, which leaves a margin for the error estimate's own error.
The engine hands its integrand at most _MAX_INTERVALS = 512 intervals
(21 abscissae each) per call, so the arrays of an integrand that nests
a batch of its own stay bounded however large the batch.

Integrands take arrays.  The integrand of ``integrate_finite`` on one
interval is called with a float ndarray of abscissae and returns an array
of the same shape, real or complex.  The integrand of ``integrate_batch``
is called as ``f(x, k)``, where the integer array k (broadcastable against
x) holds the index of the integral each abscissa belongs to.  Each integral of a batch
is refined on its own, so it comes out as it would alone.  Exceptions
raised by an integrand pass through unchanged: a ToleranceNotMet that
reaches a caller is the miss of whichever integral raised it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (
    InvalidParam,
    NonFiniteIntegrand,
    TailNotNegligible,
    ToleranceNotMet,
)

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "DEFAULT_SPEC",
    "integrate_finite",
    "integrate_batch",
    "integrate_semi_infinite_oscillatory",
    "integrate_oscillatory_batch",
]

# where a semi-infinite oscillatory integral is cut by default, and the
# budget its discarded tail must fit there
LAMBDA_MAX = 1e5
_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision limit shared by all integral evaluations:
    an integral is held as a whole to max(abs_tol, rel_tol |value|), in at
    most max_subdivisions (an integer >= 8) intervals per piece that its
    break points cut it into.  The tolerances are finite and positive."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not all(0.0 < tol < np.inf for tol in (self.abs_tol, self.rel_tol)):
            raise InvalidParam("tolerances must be finite and positive")
        if not isinstance(self.max_subdivisions, (int, np.integer)) or self.max_subdivisions < 8:
            raise InvalidParam("max_subdivisions must be an integer >= 8")


@dataclass(frozen=True)
class IntegralResult:
    """Value and error estimate; arrays of them for a batch."""

    value: Any
    err_est: Any


DEFAULT_SPEC = QuadratureSpec()

# QUADPACK qk21: abscissae of the 21-point Kronrod rule on [0, 1] (the odd
# entries are the 10-point Gauss abscissae), its weights, and the Gauss
# weights of the odd entries
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208932299524, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])


def _symmetric(half: np.ndarray, sign: float) -> np.ndarray:
    # the 21 entries on [-1, 1] in ascending order from the 11 on [0, 1]
    return np.concatenate([sign * half[:10], half[10:], half[9::-1]])


_NODES = _symmetric(_XGK, -1.0)
_W_KRONROD = _symmetric(_WGK, 1.0)
_W_GAUSS = _symmetric(np.array([0.0, *(w for g in _WG for w in (g, 0.0))]), 1.0)
_EPS = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# rounds of bisection without a new low of an integral's error estimate
# after which refining it stops: the integrand is beyond the rule's reach
# (roundoff, or structure below the resolution of its abscissae), the case
# QUADPACK's roundoff counters end
_STALL_ROUNDS = 8
# intervals handed to the integrand in one call
_MAX_INTERVALS = 512


def _kronrod(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """G10K21 on each interval [lo_j, hi_j] of integral owner_j: values and
    QUADPACK error estimates, the estimate of a complex integrand being the
    hypot of those of its real and imaginary parts.  The intervals go
    through in chunks of at most _MAX_INTERVALS, one integrand call each.
    Raises NonFiniteIntegrand where the integrand, or a rule summed from
    its finite values, leaves the binary64 range."""
    if not lo.size:
        return np.zeros(0), np.zeros(0)
    if lo.size > _MAX_INTERVALS:
        rules = [_kronrod(f, lo[i:i + _MAX_INTERVALS], hi[i:i + _MAX_INTERVALS],
                          owner[i:i + _MAX_INTERVALS])
                 for i in range(0, lo.size, _MAX_INTERVALS)]
        return tuple(np.concatenate(part) for part in zip(*rules))
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _NODES
    fx = np.broadcast_to(np.asarray(f(x, owner[:, None])), x.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        raise NonFiniteIntegrand(f"integrand not finite at x={float(x[~finite][0])!r}")
    parts = np.stack([fx.real, fx.imag]) if np.iscomplexobj(fx) else fx[None]
    resk = (parts * _W_KRONROD).sum(-1)
    resg = (parts * _W_GAUSS).sum(-1)
    ah = np.abs(half)
    resabs = (np.abs(parts) * _W_KRONROD).sum(-1) * ah
    resasc = (np.abs(parts - 0.5 * resk[..., None]) * _W_KRONROD).sum(-1) * ah
    err = np.abs(resk - resg) * ah
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = 50.0 * _EPS * resabs
    err = np.where(resabs > _UFLOW / (50.0 * _EPS), np.maximum(floor, err), err)
    value = resk * half
    if len(parts) == 2:
        value, err = value[0] + 1j * value[1], np.hypot(err[0], err[1])
    else:
        value, err = value[0] + 0j, err[0]
    if not (np.isfinite(value).all() and np.isfinite(err).all()):
        i = int(np.argmin(np.isfinite(value) & np.isfinite(err)))
        raise NonFiniteIntegrand(
            f"rule on [{float(lo[i])!r}, {float(hi[i])!r}] exceeds the binary64 range"
        )
    return value, err


def _pick(owner, err, errsum, tol, room, need) -> np.ndarray:
    """Intervals to bisect: per integral still above tolerance, the largest
    errors first until what is left unbisected is at most half the
    tolerance, within the integral's remaining room."""
    order = np.lexsort((-err, owner))
    own = owner[order]
    e = err[order]
    start = np.searchsorted(own, own, side="left")
    csum = np.cumsum(e)
    before = (csum - e) - (csum[start] - e[start])
    rank = np.arange(own.size) - start
    take = need[own] & (errsum[own] - before > 0.5 * tol[own]) & (rank < room[own])
    sel = np.zeros(owner.size, dtype=bool)
    sel[order[take]] = True
    return sel


def quad(
    f: Callable[[np.ndarray, np.ndarray], Any],
    a: np.ndarray,
    b: np.ndarray,
    abs_tol: float,
    rel_tol: float,
    limit: int,
    points: tuple[float, ...] | np.ndarray = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive G10K21 over the batch int_{a_i}^{b_i} f(x, i) dx, a_i <= b_i,
    on 1-d arrays of limits.  An empty integral, a_i = b_i, is 0 and never
    reaches f.

    points are break points: a sequence shared by every integral, or an
    array with one row per integral (nan where a row has fewer).  Each
    integral starts from [a_i, b_i] cut at its points inside it, its
    initial pieces, and its intervals with the largest errors are bisected
    until its summed error is at most half of tol_i = max(abs_tol, rel_tol
    |value_i|), it holds `limit` intervals per initial piece, or its summed
    error has not reached a new low for _STALL_ROUNDS rounds.  Returns the
    values, the error estimates and the tolerances tol_i; an integral has
    missed where err_i > tol_i.
    """
    n = a.size
    if len(points):
        # one row of edges per integral: a_i, its points and b_i, a point
        # outside [a_i, b_i] (or nan) moved onto a limit, where the empty
        # interval it makes is dropped, as are those of an empty integral
        a, b = a[:, None], b[:, None]
        edges = np.sort(np.concatenate([a, np.fmax(np.fmin(points, b), a), b], axis=1), axis=1)
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        keep = np.flatnonzero(hi > lo)
        lo, hi, owner = lo[keep], hi[keep], keep // (edges.shape[1] - 1)
    else:
        owner = np.flatnonzero(b > a)
        lo, hi = a[owner].astype(float), b[owner].astype(float)
    cap = limit * np.bincount(owner, minlength=n)
    val, err = _kronrod(f, lo, hi, owner)
    best = np.full(n, np.inf)
    stall = np.zeros(n, dtype=int)
    while True:
        # float sums even with no interval: bincount of empty weights is int
        total = np.bincount(owner, val.real, n) + 1j * np.bincount(owner, val.imag, n)
        errsum = np.bincount(owner, err, n).astype(float, copy=False)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        room = cap - np.bincount(owner, minlength=n)
        stall = np.where(errsum < best, 0, stall + 1)
        best = np.minimum(best, errsum)
        need = (errsum > 0.5 * tol) & (room > 0) & (stall < _STALL_ROUNDS)
        if not need.any():
            return total, errsum, tol
        sel = _pick(owner, err, errsum, 0.5 * tol, room, need)
        mid = 0.5 * (lo[sel] + hi[sel])
        new_lo = np.concatenate([lo[sel], mid])
        new_hi = np.concatenate([mid, hi[sel]])
        new_owner = np.concatenate([owner[sel], owner[sel]])
        new_val, new_err = _kronrod(f, new_lo, new_hi, new_owner)
        keep = ~sel
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        owner = np.concatenate([owner[keep], new_owner])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def integrate_finite(
    f: Callable[..., Any],
    a,
    b,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    points: tuple[float, ...] = (),
) -> IntegralResult:
    """Adaptive integral of an array integrand f over [a, b].

    The points that fall inside (a, b), such as the caller's integrable
    singularities, are mandatory break points.  Raises ToleranceNotMet
    (carrying the best estimate) when the error estimate still exceeds
    max(abs_tol, rel_tol*|value|) where refinement ends (max_subdivisions
    intervals per piece between break points, or no progress), and
    NonFiniteIntegrand if f returns nan/inf inside the range.

    Given an array of limits, it is integrate_batch: f is called as
    f(x, k), and the results are arrays.  The assembly's batches of times
    take this form, through the binding the benchmark's tracer counts.
    """
    if np.ndim(a) or np.ndim(b):
        return integrate_batch(f, a, b, spec, points=points)
    return integrate_batch(lambda x, k: f(x), float(a), float(b), spec, points=points)


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], Any],
    a,
    b,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    points: tuple[float, ...] | np.ndarray = (),
) -> IntegralResult:
    """The independent integrals int_{a_i}^{b_i} f(x, i) dx in one pass.

    a and b are broadcast to one shape; value and err_est come back as
    arrays of it, or as a complex and a float when both limits are scalars.
    Each integral is cut at the points that fall inside its interval
    (shared, or one row per integral as ``quad`` takes them) and held as a
    whole to the tolerance integrate_finite would hold it to, in at most
    spec.max_subdivisions intervals per piece.  A miss on any of them
    raises ToleranceNotMet carrying the values and error estimates in the
    same form.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # broadcast by adding zeros: np.broadcast_arrays costs ~10 us more a
    # call, and a field grid point makes three of them
    zero = np.zeros(np.broadcast(a, b).shape)
    shape = zero.shape
    a, b = (a + zero).ravel(), (b + zero).ravel()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidParam("integration limits must be finite")
    if (a > b).any():
        i = int(np.argmax(a > b))
        raise InvalidParam(f"integration requires a <= b, got ({a[i]}, {b[i]})")
    value, err, tol = quad(f, a, b, spec.abs_tol, spec.rel_tol, spec.max_subdivisions, points)
    if shape:
        out = IntegralResult(value.reshape(shape), err.reshape(shape))
    else:
        out = IntegralResult(complex(value[0]), float(err[0]))
    missed = err > tol
    if missed.any():
        i = int(np.argmax(missed))
        more = int(missed.sum()) - 1
        raise ToleranceNotMet(
            f"integral on [{a[i]}, {b[i]}]: err_est {err[i]:.3e} > tol {tol[i]:.3e} "
            "(subdivision limit or no progress)"
            + (f", and {more} more of {a.size}" if more else ""),
            value=out.value,
            err_est=out.err_est,
        )
    return out


def _euler_limit(cells: np.ndarray) -> np.ndarray:
    # repeated pairwise averaging of the partial sums along the last axis;
    # binomial weights kill the alternating transient geometrically
    row = np.cumsum(cells, axis=-1)
    while row.shape[-1] > 1:
        row = 0.5 * (row[..., :-1] + row[..., 1:])
    return row[..., 0]


def integrate_semi_infinite_oscillatory(
    f: Callable[[np.ndarray], Any],
    period_hint: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> IntegralResult:
    """Integral of the array integrand f over [0, infinity) for
    oscillatory-decaying f: integrate_oscillatory_batch with one member,
    cells of half the period_hint from 0, and the cap LAMBDA_MAX."""
    return integrate_oscillatory_batch(lambda x, k: f(x), period_hint, spec)


def integrate_oscillatory_batch(
    f: Callable[[np.ndarray, np.ndarray], Any],
    period_hint,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    start=0.0,
    first_boundary=None,
    lambda_max=LAMBDA_MAX,
) -> IntegralResult:
    """The independent integrals int_{start_i}^inf f(x, i) dx of
    oscillatory-decaying integrands, all on one ladder.

    Each member's axis is cut into half-period cells (its first cell edge
    overridable via first_boundary so callers can align cells with the
    zeros of their trig factor); each cell integrates adaptively;
    alternating runs of cell sums are accelerated by repeated averaging.
    A member converges either when two consecutive cells are negligible
    (decay-dominated case, with a geometric tail bound folded into err_est)
    or when the accelerated estimate stabilizes.  On reaching its cap
    (lambda_max, by default the constant LAMBDA_MAX = 1e5) a member's
    discarded tail must be below the fixed budget 1e-10, else
    TailNotNegligible.
    Every round, the next cells of all members still running are one
    engine pass, and each member comes out as it would alone.

    period_hint, start, first_boundary and lambda_max are broadcast to one
    shape; value and err_est come back as arrays of it, or as a complex and
    a float when all are scalars.  A member that misses raises
    TailNotNegligible carrying the values and error estimates in the same
    form.
    """
    period, lo, first, lam_max = np.broadcast_arrays(
        np.asarray(period_hint, dtype=float),
        np.asarray(start, dtype=float),
        np.asarray(start if first_boundary is None else first_boundary, dtype=float),
        np.asarray(lambda_max, dtype=float),
    )
    shape = period.shape
    if not (period > 0.0).all():
        raise InvalidParam(f"period_hint must be positive, got {period_hint}")
    h = 0.5 * period.ravel()
    b_prev = lo.ravel().copy()
    first, lam_max = first.ravel(), lam_max.ravel()
    b_next = np.where(first > b_prev, first, b_prev + h)
    cell_abs_tol = max(spec.abs_tol / 16.0, 1e-15)
    n = h.size
    total = np.zeros(n, dtype=complex)
    errs = np.zeros(n)
    accel = np.zeros(n, dtype=complex)
    has_accel = np.zeros(n, dtype=bool)
    stable = np.zeros(n, dtype=int)
    last = np.zeros(n)
    value = np.zeros(n, dtype=complex)
    err_out = np.zeros(n)
    # the cell sums, one column per round: a member still running has an
    # entry in every column
    cols: list[np.ndarray] = []
    run = np.flatnonzero(b_prev < lam_max)
    while run.size:
        b_next[run] = np.minimum(b_next[run], lam_max[run])
        # the engine's best estimate of each cell, whether or not it met
        # its tolerance: the convergence tests below judge the cell sums
        cell, cell_err, _ = quad(
            lambda x, k, idx=run: f(x, idx[k]),
            b_prev[run],
            b_next[run],
            cell_abs_tol,
            spec.rel_tol,
            spec.max_subdivisions,
        )
        col = np.zeros(n, dtype=complex)
        col[run] = cell
        cols.append(col)
        errs[run] += cell_err
        total[run] += cell
        last[run] = np.abs(cell)
        scale = np.maximum(np.abs(total[run]), np.where(has_accel[run], np.abs(accel[run]), 0.0))
        tol = np.maximum(spec.abs_tol, spec.rel_tol * scale)
        done = np.zeros(run.size, dtype=bool)
        if len(cols) >= 2:
            s1 = last[run]
            s0 = np.abs(cols[-2][run])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(s0 > 0.0, np.minimum(s1 / s0, 0.9), 0.0)
            tail = s1 * ratio / (1.0 - ratio)
            done = (s1 <= 0.25 * tol) & (s0 <= 0.25 * tol) & (tail <= np.maximum(_TAIL_TOL, tol))
            fin = run[done]
            value[fin] = total[fin]
            err_out[fin] = errs[fin] + s1[done] + tail[done]
        if len(cols) >= 6:
            recent = np.array([c[run] for c in cols[-6:]])
            alt = ~done & ((recent[:-1].conj() * recent[1:]).real < 0.0).all(axis=0)
            ia = np.flatnonzero(alt)
            if ia.size:
                mem = run[ia]
                est = _euler_limit(np.array([c[mem] for c in cols]).T)
                delta = np.abs(est - accel[mem])
                close = delta <= 0.5 * tol[ia]
                prev = has_accel[mem]
                stable[mem] = np.where(prev, np.where(close, stable[mem] + 1, 0), stable[mem])
                conv = prev & close & (stable[mem] >= 2)
                value[mem[conv]] = est[conv]
                err_out[mem[conv]] = errs[mem[conv]] + 2.0 * delta[conv]
                done[ia[conv]] = True
                accel[mem] = est
                has_accel[mem] = True
        run = run[~done]
        b_prev[run] = b_next[run]
        b_next[run] += h[run]
        run = run[b_prev[run] < lam_max[run]]
    # lambda_max reached: the accelerated estimate if there is one; a tail
    # verified small is charged to the error estimate
    cut = b_prev >= lam_max
    missed = cut & (last > _TAIL_TOL)
    value[cut] = np.where(has_accel, accel, total)[cut]
    err_out[cut] = (errs + last + np.where(missed, 0.0, _TAIL_TOL))[cut]
    if shape:
        res = IntegralResult(value.reshape(shape), err_out.reshape(shape))
    else:
        res = IntegralResult(complex(value[0]), float(err_out[0]))
    if missed.any():
        i = int(np.argmax(missed))
        more = int(missed.sum()) - 1
        raise TailNotNegligible(
            f"cell sums still {last[i]:.3e} > tail_tol {_TAIL_TOL:.3e} "
            f"at lambda_max={lam_max[i]}"
            + (f", and {more} more of {n}" if more else ""),
            value=res.value,
            err_est=res.err_est,
        )
    return res
