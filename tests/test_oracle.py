"""Finite-difference evolution tests: initial data, convergence toward the
closed-form evaluator, and configuration validation."""

import math

import numpy as np
import pytest

from dswave import (
    ConfigError,
    FDConfig,
    ModeState,
    PhysicalParams,
    field_riemann,
    gaussian_profile,
    solve_fd,
    spherical_harmonic,
)


def _grid_l2_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


class TestFDConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FDConfig(r_max=-1.0, n_r=400, t_end=1.0)
        with pytest.raises(ConfigError):
            FDConfig(r_max=3.0, n_r=100, t_end=1.0)
        with pytest.raises(ConfigError):
            FDConfig(r_max=3.0, n_r=400, t_end=1.0, cfl_safety=1.5)


class TestSolveFD:
    def test_initial_data_recovery(self):
        params = PhysicalParams(H=1.0, m=1.0)
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        cfg = FDConfig(r_max=4.0, n_r=400, t_end=0.5)
        rs = (0.4, 0.9, 1.6)
        grid = solve_fd(params, mode, cfg, rs, (0.0,))
        for i, r in enumerate(rs):
            assert grid.values[i, 0] == pytest.approx(
                gaussian_profile(1)(r), rel=1e-6
            )

    def test_node_radius_returns_the_snapshot_value(self):
        # at a grid node r_j = (j + 1/2) dr the spline returns the node's R
        params = PhysicalParams(H=1.0, m=1.0)
        mode = ModeState(ell=2, m=0, f0=gaussian_profile(2))
        cfg = FDConfig(r_max=4.0, n_r=400, t_end=0.5)
        dr = cfg.r_max / cfg.n_r
        rs = tuple((j + 0.5) * dr for j in (0, 37, 250))
        grid = solve_fd(params, mode, cfg, rs, (0.0, 0.5))
        for i, r in enumerate(rs):
            assert grid.values[i, 0] == pytest.approx(mode.f0.r_f(r) / r, rel=1e-15)
        # one spline holds every snapshot: each time alone gives the same
        alone = solve_fd(params, mode, cfg, rs, (0.5,))
        assert np.array_equal(alone.values[:, 0], grid.values[:, 1])

    def test_sample_domain_validation(self):
        params = PhysicalParams(H=1.0, m=1.0)
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        cfg = FDConfig(r_max=4.0, n_r=400, t_end=1.0)
        with pytest.raises(ConfigError):
            solve_fd(params, mode, cfg, (0.5,), (2.0,))  # beyond t_end
        with pytest.raises(ConfigError):
            solve_fd(params, mode, cfg, (-0.5,), (0.5,))
        with pytest.raises(ConfigError):
            # r_max leaves no causal margin for the requested samples
            solve_fd(params, mode, cfg, (3.9,), (1.0,))

    def test_converges_to_closed_form_with_observed_order(self):
        params = PhysicalParams(H=1.0, m=math.sqrt(2.0))
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        rs = tuple(np.linspace(0.3, 2.0, 8))
        ts = (0.5, 1.0)
        # solve_fd evolves the radial factor; divide out the harmonic
        y = spherical_harmonic(1, 0, 0.0, 0.0)
        ref = np.array(
            [[field_riemann(mode, params, r, t) / y for t in ts] for r in rs]
        )
        errs = []
        for n_r in (400, 800):
            cfg = FDConfig(r_max=3.6, n_r=n_r, t_end=1.0)
            grid = solve_fd(params, mode, cfg, rs, ts)
            errs.append(_grid_l2_rel(grid.values, ref))
        assert errs[1] < 2e-4
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_all_flags_ok_on_clean_run(self):
        params = PhysicalParams(H=1.0, m=2.0)
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        cfg = FDConfig(r_max=3.0, n_r=300, t_end=0.5)
        grid = solve_fd(params, mode, cfg, (0.5, 1.0), (0.0, 0.5))
        assert all(flag == "ok" for row in grid.err_flags for flag in row)
        assert np.all(np.isfinite(grid.values))
