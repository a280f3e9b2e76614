"""Package-level acceptance gates.

One test per numbered gate.  Each computes its property end to end,
prints a single PASS/FAIL summary line (visible under ``pytest -s``),
and asserts the stated tolerance together with the runtime budget.
Gates 3 and 9 share the heavy-mass reference grids through a cache.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from dswave import (
    FDConfig,
    ModeState,
    PhysicalParams,
    QuadratureSpec,
    decay_fit,
    evaluate_grid,
    field_hankel,
    field_riemann,
    gaussian_profile,
    huygens_k0,
    huygens_k1,
    ita_remainder,
    kernel_eval,
    phi_of_t,
    pionic_mode,
    pionic_profile,
    scaled_profile,
    solve_fd,
    solve_hankel,
    solve_recursive,
    solve_riemann,
    spherical_harmonic,
    traveling_average,
    wave_block,
)
from dswave.cli import main as cli_main

SQRT2 = math.sqrt(2.0)

# Gates 3 and 9 evaluate on the same tensor grid.
GRID_R = np.linspace(0.1, 3.0, 24)
GRID_T = np.linspace(0.0, 2.0, 5)


def _gate(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@lru_cache(maxsize=None)
def _riemann_reference(ell: int, m: float) -> np.ndarray:
    """Quadrature-method field values on the shared grid, angular factor
    included."""
    params = PhysicalParams(H=1.0, m=m)
    mode = ModeState(ell, 0, gaussian_profile(ell))
    field = evaluate_grid(mode, params, "riemann", GRID_R, GRID_T)
    assert all(f == "ok" for row in field.grid.err_flags for f in row)
    return field.grid.values


def test_criterion_01_huygens_collapse():
    t0 = time.perf_counter()
    worst1 = worst0 = 0.0
    for H in (0.5, 1.0, 2.0):
        params = PhysicalParams(H=H, m=SQRT2 * H)
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            t = rng.uniform(0.0, 5.0)
            r = rng.uniform(0.0, 0.999) * phi_of_t(t, H)
            ke = kernel_eval(r, t, params)
            worst1 = max(worst1, abs(ke.k1 - huygens_k1(t, H)))
            worst0 = max(worst0, abs(ke.k0 - huygens_k0(t, H)) / H)
    elapsed = time.perf_counter() - t0
    ok = worst1 <= 1e-10 and worst0 <= 1e-10 and elapsed < 1.0
    _gate(
        1,
        "huygens kernel collapse",
        ok,
        f"worst |K1 - closed form| {worst1:.2e} (<= 1e-10), "
        f"worst |K0 - closed form|/H {worst0:.2e} (<= 1e-10), "
        f"{elapsed:.2f}s (< 1 s)",
    )


def test_criterion_02_minkowski_cross_method():
    t0 = time.perf_counter()
    # Tight spec: this gate compares methods, so the quadrature method
    # must resolve well below the 1e-8 gate on the closed forms.
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    rng = np.random.default_rng(2002)
    worst_h = worst_r = 0.0
    for ell in range(6):
        for prof in (gaussian_profile(ell), pionic_profile(ell + 1, ell, 1)):
            mode = ModeState(ell, 0, prof)
            for _ in range(50):
                r = rng.uniform(0.1, 3.0)
                t = rng.uniform(0.0, 2.0)
                a = solve_riemann(mode, r, t, spec=spec)
                b = solve_hankel(mode, r, t)
                c = solve_recursive(mode, r, t)
                scale = 1.0 + abs(a)
                worst_h = max(worst_h, abs(a - b) / scale)
                worst_r = max(worst_r, abs(a - c) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_h <= 1e-5 and worst_r <= 1e-8 and elapsed < 120.0
    _gate(
        2,
        "minkowski cross-method equivalence",
        ok,
        f"worst riemann-hankel {worst_h:.2e} (<= 1e-5), "
        f"worst riemann-recursive {worst_r:.2e} (<= 1e-8), "
        f"{elapsed:.1f}s (< 2 min)",
    )


def test_criterion_03_fd_certification():
    t0 = time.perf_counter()
    worst_l2 = 0.0
    min_order = math.inf
    for m in (0.5, SQRT2, 2.0):
        for ell in (0, 1, 2):
            params = PhysicalParams(H=1.0, m=m)
            mode = ModeState(ell, 0, gaussian_profile(ell))
            y = spherical_harmonic(ell, 0, 0.0, 0.0)
            ref = _riemann_reference(ell, m) / y
            errs = {}
            for n_r in (1000, 2000):
                cfg = FDConfig(r_max=5.5, n_r=n_r, t_end=2.0)
                fd = solve_fd(params, mode, cfg, GRID_R, GRID_T)
                errs[n_r] = float(
                    np.linalg.norm(fd.values - ref) / np.linalg.norm(ref)
                )
            worst_l2 = max(worst_l2, errs[2000])
            min_order = min(min_order, math.log2(errs[1000] / errs[2000]))
    elapsed = time.perf_counter() - t0
    ok = worst_l2 <= 1e-3 and min_order >= 1.8 and elapsed < 600.0
    _gate(
        3,
        "finite-difference certification",
        ok,
        f"worst rel L2 at n_r=2000 {worst_l2:.2e} (<= 1e-3), "
        f"min observed order {min_order:.2f} (>= 1.8), "
        f"{elapsed:.1f}s (< 10 min)",
    )


def test_criterion_04_representation_equivalence():
    t0 = time.perf_counter()
    cases = [(ell, m, "gauss") for ell in range(4) for m in (0.5, 2.0)]
    cases += [(0, SQRT2, "gauss"), (2, SQRT2, "gauss"), (1, 0.5, "pionic")]
    rng = np.random.default_rng(4004)
    worst = 0.0
    for ell, m, kind in cases:
        params = PhysicalParams(H=1.0, m=m)
        f0 = pionic_profile(2, 1, 1) if kind == "pionic" else gaussian_profile(ell)
        # One case exercises the velocity convolution in both forms.
        f1 = scaled_profile(f0, -0.4j) if (ell, m, kind) == (1, 2.0, "gauss") else None
        mode = ModeState(ell, 0, f0, f1)
        for _ in range(20):
            r = rng.uniform(0.1, 2.5)
            t = rng.uniform(0.0, 3.0)
            a = field_riemann(mode, params, r, t, 0.4, 1.1)
            b = field_hankel(mode, params, r, t, 0.4, 1.1)
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 300.0
    _gate(
        4,
        "spectral vs quadrature representation",
        ok,
        f"worst relative difference {worst:.2e} (<= 1e-5) over {len(cases)} "
        f"(ell, m) cases x 20 points, {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_05_initial_data_recovery():
    t0 = time.perf_counter()
    params = PhysicalParams(H=1.0, m=SQRT2)
    mode = pionic_mode(2, 1, m=1, energy=1.3)
    theta, phi = 0.4, 1.1
    y = spherical_harmonic(1, 1, theta, phi)
    rs = (0.5, 1.2)
    h = 0.02
    ts = (0.0, h, 2.0 * h, 3.0 * h)
    worst_data = worst_vel = 0.0
    for method in ("riemann", "hankel", "huygens_riemann", "huygens_hankel", "fd"):
        kwargs = {}
        if method == "fd":
            kwargs["fd_config"] = FDConfig(r_max=2.5, n_r=2000, t_end=ts[-1])
        field = evaluate_grid(mode, params, method, rs, ts, theta, phi, **kwargs)
        for i, r in enumerate(rs):
            data = y * mode.f0(r)
            vel = y * mode.f1(r)
            col = field.grid.values[i]
            # Third-order one-sided difference in t at the initial time.
            got_vel = (-11.0 * col[0] + 18.0 * col[1] - 9.0 * col[2] + 2.0 * col[3]) / (6.0 * h)
            worst_data = max(worst_data, abs(col[0] - data) / (1.0 + abs(data)))
            worst_vel = max(worst_vel, abs(got_vel - vel) / (1.0 + abs(vel)))
    elapsed = time.perf_counter() - t0
    ok = worst_data <= 1e-7 and worst_vel <= 1e-4 and elapsed < 60.0
    _gate(
        5,
        "initial data and velocity recovery",
        ok,
        f"worst data error {worst_data:.2e} (<= 1e-7), "
        f"worst velocity error {worst_vel:.2e} (<= 1e-4), "
        f"{elapsed:.1f}s (< 1 min)",
    )


def test_criterion_06_minkowski_tail_decay():
    t0 = time.perf_counter()
    parts = []
    ok = True
    for n, ell in ((2, 1), (3, 2)):
        prof = pionic_profile(n, ell, 1)
        target = n + prof.mu - 1.5

        def sampler(t: float, prof=prof, ell=ell) -> complex:
            return wave_block(prof, ell, 1.0, t) - traveling_average(prof, 1.0, t)

        rep = decay_fit(sampler, (10.0, 30.0), 21, fit_poly_power=True)
        slope_ok = abs(rep.fitted_exponent + 0.5) <= 0.05
        poly_ok = abs(rep.fitted_poly_power - target) <= 0.5
        ok = ok and slope_ok and poly_ok
        parts.append(
            f"(n={n}, ell={ell}) slope {rep.fitted_exponent:+.4f} (-0.5 +- 0.05), "
            f"poly {rep.fitted_poly_power:+.3f} (target {target:.3f} +- 0.5)"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    # Known analytic obstruction for ell = 2: the fitted power settles at
    # n + mu - ell - 1/2, one below the n + mu - 3/2 envelope, because the
    # envelope bounds every term of the tail sum but their leading orders
    # cancel except at ell = 1; on t in [10, 30] the pre-asymptotic
    # transient overshoots the band from above instead.
    _gate(
        6,
        "minkowski tail decay",
        ok,
        "; ".join(parts) + f", {elapsed:.1f}s (< 2 min)",
    )


@pytest.mark.parametrize("n,ell", [(2, 1), (3, 2)])
def test_minkowski_tail_true_envelope(n, ell):
    # gate 6's bands against the envelope the tail attains,
    # t^(n + mu - ell - 1/2), on a window past the transient that makes
    # gate 6 fail at ell = 2 (README, "Tests"); gate 6 itself stays as it is
    prof = pionic_profile(n, ell, 1)

    def sampler(t: float) -> complex:
        return wave_block(prof, ell, 1.0, t) - traveling_average(prof, 1.0, t)

    rep = decay_fit(sampler, (100.0, 300.0), 21, fit_poly_power=True)
    assert abs(rep.fitted_exponent + 0.5) <= 0.05
    assert abs(rep.fitted_poly_power - (n + prof.mu - ell - 0.5)) <= 0.5


def test_criterion_07_decay_regimes():
    t0 = time.perf_counter()
    mode = ModeState(1, 0, gaussian_profile(1))
    parts = []
    ok = True
    for m in (0.5, 1.2, SQRT2, 2.0):
        params = PhysicalParams(H=1.0, m=m)
        heavy = m == 2.0

        def sampler(t: float, params=params) -> complex:
            return ita_remainder(mode, params, 0.7, t)

        rep = decay_fit(
            sampler, (14.0, 34.0), 21, params=params, fit_poly_power=heavy
        )
        dev = abs(rep.fitted_exponent - rep.predicted_exponent)
        exp_ok = dev <= 0.10 * abs(rep.predicted_exponent)
        poly_ok = (not heavy) or abs(
            rep.fitted_poly_power - rep.predicted_poly_power
        ) <= 0.5
        ok = ok and exp_ok and poly_ok
        part = (
            f"m={m:.3f} [{rep.regime}] fitted {rep.fitted_exponent:+.4f} "
            f"vs {rep.predicted_exponent:+.4f}"
        )
        if heavy:
            part += f", poly {rep.fitted_poly_power:+.3f} (target 0 +- 0.5)"
        parts.append(part)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _gate(
        7,
        "expanding-background decay regimes",
        ok,
        "; ".join(parts) + f", {elapsed:.1f}s (< 10 min)",
    )


def test_criterion_08_fine_structure_exponents():
    t0 = time.perf_counter()
    got_z1 = pionic_profile(1, 0, 1).mu - 0.5
    got_z2 = pionic_profile(1, 0, 2).mu - 0.5
    s1, s2 = f"{got_z1:.6g}", f"{got_z2:.6g}"
    elapsed = time.perf_counter() - t0
    ok = s1 == "-5.32822e-05" and s2 == "-0.000213163" and elapsed < 1.0
    _gate(
        8,
        "bound-state exponent constants",
        ok,
        f"mu - 1/2 = {s1} (Z=1), {s2} (Z=2) to 6 significant figures, "
        f"{elapsed:.3f}s (< 1 s)",
    )


def test_criterion_09_heavy_mass_reality():
    t0 = time.perf_counter()
    worst = 0.0
    for ell in (0, 1, 2):
        v = _riemann_reference(ell, 2.0)
        worst = max(worst, float(np.max(np.abs(v.imag) / np.abs(v))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _gate(
        9,
        "reality for imaginary branch parameter",
        ok,
        f"worst |Im phi| / |phi| {worst:.2e} (<= 1e-8) on the heavy-mass "
        f"grids, {elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    base = [
        "eval",
        "--ell", "1",
        "--mass", "2.0",
        "--r", "0.3:2.4:4",
        "--t", "0:1.5:4",
    ]
    ok = True
    for fmt in ("csv", "json"):
        outs = {}
        for jobs in ("1", "4"):
            path = tmp_path / f"out_{jobs}.{fmt}"
            code = cli_main(base + ["--format", fmt, "--jobs", jobs, "--out", str(path)])
            assert code == 0
            outs[jobs] = path.read_bytes()
        ok = ok and outs["1"] == outs["4"]
    elapsed = time.perf_counter() - t0
    _gate(
        10,
        "cli determinism across --jobs",
        ok,
        f"csv and json outputs byte-identical for --jobs 1 vs 4, "
        f"{elapsed:.1f}s",
    )
