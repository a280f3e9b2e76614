"""Direct finite-difference evolution of the radial field equation.

Independent of every closed-form evaluator: the substituted variable
R = r * F obeys

    R_tt = e^{-2 H t} (R_rr - ell (ell+1) / r^2 R) - n H R_t - m^2 R,

which is discretized on a staggered grid r_j = (j + 1/2) dr (no node at
the coordinate singularity), second order in space, with classic RK4 in
time at a fixed fraction of dr.  The origin ghost uses the parity of R
(odd for even ell, even for odd ell); the outer edge holds R = 0, valid
while the outgoing characteristic from max(r) + t_end stays inside r_max,
which the configuration check enforces.  One not-a-knot cubic spline
(``dswave.minkowski._spline``) reads the samples off all the snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InstabilityDetected
from .desitter import FieldGrid
from .kernels import PhysicalParams
from .minkowski import ModeState, _spline

__all__ = ["FDConfig", "solve_fd"]

# light-cone slack added beyond max(r) + t_end when validating r_max
_CAUSAL_MARGIN = 0.05


@dataclass(frozen=True)
class FDConfig:
    """Grid and stepping controls for the finite-difference run.

    cfl_safety scales the time step: dt = cfl_safety * dr.
    """

    r_max: float
    n_r: int
    t_end: float
    cfl_safety: float = 0.2

    def __post_init__(self) -> None:
        if self.r_max <= 0.0:
            raise ConfigError(f"r_max must be > 0, got {self.r_max}")
        if self.n_r < 200:
            raise ConfigError(f"n_r must be >= 200, got {self.n_r}")
        if self.t_end < 0.0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ConfigError(f"cfl_safety must lie in (0, 1), got {self.cfl_safety}")


def solve_fd(
    params: PhysicalParams,
    mode: ModeState,
    config: FDConfig,
    r_values: Sequence[float],
    t_values: Sequence[float],
) -> FieldGrid:
    """Evolve the mode and sample F = R / r on the requested grid.

    r_values must lie inside (0, r_max); t_values inside [0, t_end].  The
    flat-space light speed bounds the comoving one, so r_max must clear
    max(r) + t_end with margin or the outer boundary would contaminate the
    samples (ConfigError).  Growth of max|R| beyond 50x its initial scale
    aborts with InstabilityDetected.
    """
    rs = tuple(float(r) for r in r_values)
    ts = tuple(float(t) for t in t_values)
    if not rs or not ts:
        raise ConfigError("need at least one radius and one time")
    if min(rs) <= 0.0:
        raise ConfigError(f"sample radii must be positive, got {min(rs)}")
    if min(ts) < 0.0:
        raise ConfigError(f"sample times must be nonnegative, got {min(ts)}")
    if max(ts) > config.t_end:
        raise ConfigError(f"sample time {max(ts)} exceeds t_end={config.t_end}")
    needed = max(rs) + config.t_end + _CAUSAL_MARGIN
    if config.r_max < needed:
        raise ConfigError(
            f"r_max={config.r_max} too small: boundary effects reach the "
            f"samples, need >= {needed}"
        )

    dr = config.r_max / config.n_r
    rj = (np.arange(config.n_r) + 0.5) * dr
    r0 = mode.f0.r_f(rj)
    s0 = mode.f1.r_f(rj) if mode.f1 is not None else np.zeros(config.n_r)
    if r0.imag.any() or s0.imag.any():
        r_state = r0.astype(complex)
        s_state = s0.astype(complex)
    else:
        r_state = r0.real.copy()
        s_state = s0.real.copy()

    h = params.H
    nh = params.n * h
    m2 = params.m**2
    ell_cent = mode.ell * (mode.ell + 1)
    ghost_sign = 1.0 if mode.ell % 2 else -1.0  # parity of R at the origin
    inv_dr2 = 1.0 / (dr * dr)
    inv_r2 = 1.0 / (rj * rj)

    def rhs(t: float, r_arr, s_arr):
        d2 = np.empty_like(r_arr)
        d2[1:-1] = r_arr[2:] - 2.0 * r_arr[1:-1] + r_arr[:-2]
        d2[0] = r_arr[1] - 2.0 * r_arr[0] + ghost_sign * r_arr[0]
        d2[-1] = -2.0 * r_arr[-1] + r_arr[-2]
        lap = d2 * inv_dr2 - ell_cent * inv_r2 * r_arr
        return s_arr, math.exp(-2.0 * h * t) * lap - nh * s_arr - m2 * r_arr

    amp0 = max(float(np.abs(r_state).max()), float(np.abs(s_state).max()), 1e-30)
    dt_max = config.cfl_safety * dr
    stops = sorted(set(ts) | {0.0})
    snapshots: dict[float, np.ndarray] = {}
    t_now = 0.0
    if stops[0] == 0.0:
        snapshots[0.0] = r_state.copy()
    for t_stop in stops:
        if t_stop <= t_now:
            continue
        n_steps = max(1, math.ceil((t_stop - t_now) / dt_max))
        dt = (t_stop - t_now) / n_steps
        for _ in range(n_steps):
            k1r, k1s = rhs(t_now, r_state, s_state)
            k2r, k2s = rhs(
                t_now + 0.5 * dt, r_state + 0.5 * dt * k1r, s_state + 0.5 * dt * k1s
            )
            k3r, k3s = rhs(
                t_now + 0.5 * dt, r_state + 0.5 * dt * k2r, s_state + 0.5 * dt * k2s
            )
            k4r, k4s = rhs(t_now + dt, r_state + dt * k3r, s_state + dt * k3s)
            r_state = r_state + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            s_state = s_state + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            t_now += dt
        t_now = t_stop
        amp = float(np.abs(r_state).max())
        if not math.isfinite(amp) or amp > 50.0 * amp0:
            raise InstabilityDetected(
                f"max|R| grew to {amp:.3g} (initial scale {amp0:.3g}) "
                f"by t={t_now:.4g}; reduce cfl_safety or refine the grid"
            )
        snapshots[t_stop] = r_state.copy()

    r_arr = np.array(rs)
    values = _spline(rj, np.stack([snapshots[t] for t in ts], axis=1))(r_arr) / r_arr[:, None]
    flags = [["ok"] * len(ts) for _ in rs]
    return FieldGrid(
        r_values=rs, t_values=ts, values=values, err_flags=flags, method="fd"
    )
