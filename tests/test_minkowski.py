"""Flat-space solver tests: frozen block references
(tools/gen_oracle_values.py), cross-method agreement, and the massive-field
anchor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dswave import (
    DomainError,
    InvalidParam,
    ModeState,
    UnsupportedEll,
    gaussian_profile,
    hankel_transform,
    minkowski_kg,
    scaled_profile,
    solve_hankel,
    solve_recursive,
    solve_riemann,
    tabulated_profile,
    traveling_average,
    wave_block,
)
from dswave import DEFAULT_SPEC
from dswave.desitter import pionic_profile
from dswave.minkowski import _hankel_block

GAUSS_BLOCK_L1 = {
    (0.7, 0.3): 0.286036796954091783,
    (0.7, 1.9): 0.0207434185404989124,
}
GAUSS_BLOCK_L3_08_11 = -0.085065360645082075
PIONIC_BLOCK_21_09_06 = 0.391752537012829497
KG_GAUSS_09_14_M13 = -0.363735600818032037  # ell=0 gaussian data, zero velocity


class TestProfiles:
    def test_gaussian_closed_form_transform(self):
        prof = gaussian_profile(2, sigma=0.8)
        lam = 1.7
        want = lam**2.5 * math.exp(-(lam**2) / 3.2) / (1.6**3.5)
        assert prof.hankel(lam) == pytest.approx(want, rel=1e-13)

    def test_gaussian_power_parity_rule(self):
        with pytest.raises(InvalidParam):
            gaussian_profile(1, power=2)  # power - ell must be even
        with pytest.raises(InvalidParam):
            gaussian_profile(2, power=0)  # ... and nonnegative
        prof = gaussian_profile(1, power=3)
        assert prof(0.5) == pytest.approx(0.5**3 * math.exp(-0.25), rel=1e-14)

    def test_parity_extension(self):
        odd = gaussian_profile(1)
        assert odd(-0.4) == pytest.approx(-odd(0.4), rel=1e-15)
        even = gaussian_profile(2)
        assert even(-0.4) == pytest.approx(even(0.4), rel=1e-15)

    def test_scaled_profile(self):
        base = gaussian_profile(0)
        scaled = scaled_profile(base, -2j)
        assert scaled(0.9) == pytest.approx(-2j * base(0.9), rel=1e-15)
        assert scaled.hankel(1.1) == pytest.approx(-2j * base.hankel(1.1), rel=1e-15)

    def test_tabulated_profile_matches_source(self):
        src = gaussian_profile(1)
        rs = np.linspace(0.01, 8.0, 400)
        tab = tabulated_profile(rs, [src(r) for r in rs], ell=1)
        for r in (0.3, 1.7, 4.2):
            assert tab(r) == pytest.approx(src(r), rel=1e-6, abs=1e-9)
        assert tab(9.5) == 0j  # zero outside the table

    def test_tabulated_profile_validation(self):
        with pytest.raises(InvalidParam):
            tabulated_profile([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], ell=0)  # < 4 rows
        with pytest.raises(InvalidParam):
            tabulated_profile([0.3, 0.2, 0.4, 0.5], [1.0] * 4, ell=0)


class TestWaveBlock:
    @pytest.mark.parametrize("rt,want", sorted(GAUSS_BLOCK_L1.items()))
    def test_frozen_gaussian_ell1(self, rt, want):
        r, t = rt
        assert wave_block(gaussian_profile(1), 1, r, t) == pytest.approx(
            want, rel=1e-10
        )

    def test_frozen_gaussian_ell3(self):
        assert wave_block(gaussian_profile(3), 3, 0.8, 1.1) == pytest.approx(
            GAUSS_BLOCK_L3_08_11, rel=1e-10
        )

    def test_frozen_pionic_ell1(self):
        prof = pionic_profile(2, 1, 1)
        assert wave_block(prof, 1, 0.9, 0.6) == pytest.approx(
            PIONIC_BLOCK_21_09_06, rel=1e-10
        )

    def test_array_of_times_equals_scalar_calls(self):
        # one batch of tail integrals, each refined as it would be alone
        for prof, ell in ((gaussian_profile(2), 2), (pionic_profile(2, 1, 1), 1)):
            ts = np.array([[0.0, 0.3, 0.8], [0.9, 2.5, 4.0]])
            got = wave_block(prof, ell, 0.9, ts)
            assert got.shape == ts.shape
            for t, g in zip(ts.ravel(), got.ravel()):
                assert g == pytest.approx(wave_block(prof, ell, 0.9, float(t)), rel=1e-15)

    def test_spectral_block_array_of_times_equals_scalar_calls(self):
        # one batch of direct panels and one ladder for every time, each
        # block as it would be alone; omega = r + 1e-4 puts the r - omega
        # components on the near-DC path, and the sin block vanishes at 0
        r = 0.7
        ws = np.array([[0.0, 0.3, r + 1e-4], [1.3, 2.9, 0.05]])
        for prof in (gaussian_profile(1), pionic_profile(2, 1, 1)):
            for weight in ("cos", "sin"):
                got = _hankel_block(prof.hankel, 1, r, ws, weight, DEFAULT_SPEC)
                assert got.shape == ws.shape
                for w, g in zip(ws.ravel(), got.ravel()):
                    one = _hankel_block(prof.hankel, 1, r, float(w), weight, DEFAULT_SPEC)
                    assert g == pytest.approx(one, rel=1e-14, abs=1e-300)
                if weight == "sin":
                    assert got[0, 0] == 0.0

    def test_profiles_take_arrays(self):
        xs = np.array([-0.4, 0.0, 0.7, 2.0])
        for prof in (gaussian_profile(1), gaussian_profile(2), pionic_profile(2, 1, 1)):
            got = prof(xs)
            assert got == pytest.approx([prof(float(x)) for x in xs], rel=1e-15)
            assert prof.r_f(xs) == pytest.approx([prof.r_f(float(x)) for x in xs], rel=1e-15)

    def test_monopole_is_the_traveling_average(self):
        prof = gaussian_profile(0)
        for r, t in [(0.5, 0.2), (0.5, 2.7)]:
            assert wave_block(prof, 0, r, t) == traveling_average(prof, r, t)

    def test_initial_data_recovery(self):
        prof = gaussian_profile(2)
        for r in (0.3, 1.1, 2.6):
            assert wave_block(prof, 2, r, 0.0) == pytest.approx(prof(r), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            wave_block(gaussian_profile(0), 0, -0.4, 1.0)
        with pytest.raises(DomainError):
            wave_block(gaussian_profile(0), 0, 0.4, -1.0)


class TestCrossMethod:
    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 4, 5])
    def test_riemann_vs_recursive_gaussian(self, ell):
        mode = ModeState(ell=ell, m=0, f0=gaussian_profile(ell))
        for r, t in [(0.6, 0.4), (0.9, 2.2)]:
            a = solve_riemann(mode, r, t)
            b = solve_recursive(mode, r, t)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    @pytest.mark.parametrize("ell", [0, 2, 4])
    def test_riemann_vs_hankel_gaussian(self, ell):
        mode = ModeState(ell=ell, m=0, f0=gaussian_profile(ell))
        for r, t in [(0.6, 0.4), (1.4, 1.1)]:
            a = solve_riemann(mode, r, t)
            b = solve_hankel(mode, r, t)
            assert abs(a - b) <= 1e-7 * (1.0 + abs(a))

    def test_riemann_vs_hankel_pionic_with_velocity(self):
        f0 = pionic_profile(2, 1, 1)
        mode = ModeState(ell=1, m=0, f0=f0, f1=scaled_profile(f0, -0.5j))
        for r, t in [(0.8, 0.5), (1.2, 2.0)]:
            a = solve_riemann(mode, r, t)
            b = solve_hankel(mode, r, t)
            assert abs(a - b) <= 1e-7 * (1.0 + abs(a))

    def test_recursive_limits(self):
        mode6 = ModeState(ell=6, m=0, f0=gaussian_profile(6))
        with pytest.raises(UnsupportedEll):
            solve_recursive(mode6, 0.5, 0.5)
        f0 = gaussian_profile(1)
        with_vel = ModeState(ell=1, m=0, f0=f0, f1=f0)
        with pytest.raises(InvalidParam):
            solve_recursive(with_vel, 0.5, 0.5)

    @given(st.floats(0.2, 2.0), st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_riemann_recursive_property(self, r, t):
        mode = ModeState(ell=2, m=0, f0=gaussian_profile(2))
        a = solve_riemann(mode, r, t)
        b = solve_recursive(mode, r, t)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


class TestHankelTransform:
    def test_matches_closed_form_gaussian(self):
        prof = gaussian_profile(1, sigma=1.0)
        for lam in (0.5, 2.0):
            got = hankel_transform(prof, 1, lam)
            assert got == pytest.approx(prof.hankel(lam), rel=1e-8)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            hankel_transform(gaussian_profile(0), 0, 0.0)


class TestMinkowskiKG:
    def test_frozen_reference(self):
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        assert minkowski_kg(mode, 1.3, 0.9, 1.4) == pytest.approx(
            KG_GAUSS_09_14_M13, rel=1e-9
        )

    def test_massless_reduction_is_exact(self):
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        for r, t in [(0.7, 0.4), (0.5, 1.6)]:
            assert minkowski_kg(mode, 0.0, r, t) == solve_riemann(mode, r, t)

    def test_initial_data_recovery(self):
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        assert minkowski_kg(mode, 2.0, 0.8, 0.0) == pytest.approx(
            gaussian_profile(1)(0.8), rel=1e-12
        )

    def test_rejects_negative_mass(self):
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        with pytest.raises(InvalidParam):
            minkowski_kg(mode, -1.0, 0.5, 0.5)
