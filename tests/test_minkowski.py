"""Flat-space solver tests: frozen block references
(tools/gen_oracle_values.py), cross-method agreement, and the spline of
tabulated profiles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dswave import (
    DomainError,
    InvalidParam,
    ModeState,
    PhysicalParams,
    QuadratureSpec,
    ToleranceNotMet,
    UnsupportedEll,
    gaussian_profile,
    integrate_finite,
    scaled_profile,
    solve_hankel,
    solve_recursive,
    solve_riemann,
    tabulated_profile,
    traveling_average,
    wave_block,
)
from dswave import DEFAULT_SPEC, minkowski
from dswave.desitter import field_hankel, pionic_profile
from dswave.specfun import bessel_trig_split
from dswave.minkowski import _blocks, _hankel_block, _kirchhoff_block

GAUSS_BLOCK_L1 = {
    (0.7, 0.3): 0.286036796954091783,
    (0.7, 1.9): 0.0207434185404989124,
}
GAUSS_BLOCK_L3_08_11 = -0.085065360645082075
PIONIC_BLOCK_21_09_06 = 0.391752537012829497
GAUSS_HAT_S2 = {  # (ell, k, lam): power ell + 2k, sigma = 2
    (0, 1, 0.5): 0.0629131161221306942,
    (0, 1, 2.3): 0.0410392336529182784,
    (0, 1, 60): -8.02049612722409934e-194,
    (1, 1, 0.5): 0.0132184472703412895,
    (1, 1, 2.3): 0.05173175827791297,
    (1, 1, 60): -1.20039197890728577e-192,
    (3, 2, 0.5): 0.00102096720674582132,
    (3, 2, 2.3): 0.0833145270939257088,
    (3, 2, 60): 5.96230253131706797e-188,
    (2, 10, 0.5): 614.598755550704368,
    (2, 10, 2.3): 385.525583064271957,
    (2, 10, 60): 2.01297852296441479e-170,
    (170, 0, 0.5): 2.55579210349162625e-155,
    (170, 0, 2.3): 1.36185322026178848e-42,
    (170, 0, 60): 30830.6599517844879,
}


class TestProfiles:
    def test_gaussian_closed_form_transform(self):
        prof = gaussian_profile(2, sigma=0.8)
        lam = 1.7
        want = lam**2.5 * math.exp(-(lam**2) / 3.2) / (1.6**3.5)
        assert prof.hankel(lam) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("args,want", sorted(GAUSS_HAT_S2.items()))
    def test_gaussian_transform_every_power(self, args, want):
        # k! lam^nu e^{-x} L_k^nu(x) / (2^{nu+1} sigma^{nu+k+1}) in one
        # exponent: at ell = 170 lam^nu alone leaves binary64 from lam ~ 63
        ell, k, lam = args
        prof = gaussian_profile(ell, sigma=2.0, power=ell + 2 * k)
        assert prof.hankel(lam) == pytest.approx(want, rel=1e-12)

    def test_gaussian_transform_takes_arrays_and_vanishes_at_zero_and_far_out(self):
        # the spectral tail reaches lam ~ 1e5, where L_40 alone overflows;
        # there the Gaussian factor has already rounded the value to zero
        prof = gaussian_profile(1, sigma=1.0, power=81)
        lams = np.array([0.0, 0.5, 3.0, 1e5])
        got = prof.hankel(lams)
        assert got[0] == 0.0 and got[3] == 0.0
        assert got[1:3] == pytest.approx([prof.hankel(0.5), prof.hankel(3.0)], rel=1e-15)

    def test_gaussian_transform_beyond_binary64_is_absent(self):
        # the transform peaks near exp(2950) at ell = 1000, sigma = 1; the
        # profile itself still serves the quadrature realization
        prof = gaussian_profile(1000)
        assert prof.hankel is None
        with pytest.raises(InvalidParam):
            _blocks(prof, DEFAULT_SPEC, spectral=True)
        assert gaussian_profile(300).hankel is not None

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
        # scaling again scales the base by the product, which is recorded
        again = scaled_profile(scaled, 0.5)
        assert again._scale[0] is base and again._scale[1] == -1j
        assert again(0.9) == pytest.approx(-1j * base(0.9), rel=1e-15)

    def test_tabulated_profile_matches_source(self):
        src = gaussian_profile(1)
        rs = np.linspace(0.01, 8.0, 400)
        tab = tabulated_profile(rs, [src(r) for r in rs], ell=1)
        for r in (0.3, 1.7, 4.2):
            assert tab(r) == pytest.approx(src(r), rel=1e-6, abs=1e-9)
        assert tab(9.5) == 0j  # zero outside the table

    def test_tabulated_profile_is_zero_outside_its_table(self):
        tab = tabulated_profile([0.5, 1.0, 1.5, 2.0, 3.0], [1.0, -2.0, 0.5, 4.0, 1.0], ell=0)
        xs = np.array([0.1, 0.4999, 3.0001, 50.0])
        assert np.array_equal(tab(xs), np.zeros(4, dtype=complex))
        assert tab(0.5) == 1.0 and tab(3.0) == 1.0  # the end nodes are inside

    def test_tabulated_profile_validation(self):
        with pytest.raises(InvalidParam):
            tabulated_profile([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], ell=0)  # < 4 rows
        with pytest.raises(InvalidParam):
            tabulated_profile([0.3, 0.2, 0.4, 0.5], [1.0] * 4, ell=0)


class TestSpline:
    @given(st.integers(4, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reproduces_any_cubic(self, n, data):
        # a cubic is its own not-a-knot spline on any nodes: two complex
        # cubics as columns, on random increasing nodes.  Spacings differ by
        # up to 20x; at 200x the rounding of the problem itself reaches
        # 2.6e-12 of the largest value, for scipy's CubicSpline as well
        gaps = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
        x = 0.3 + np.concatenate([[0.0], np.cumsum(gaps)])
        coef = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16)))
        coef = (coef[:8] + 1j * coef[8:]).reshape(4, 2)

        def cubic(v):
            v = v[:, None]
            return ((coef[3] * v + coef[2]) * v + coef[1]) * v + coef[0]

        xq = np.concatenate([x, np.linspace(x[0], x[-1], 37)])
        want = cubic(xq)
        got = minkowski._spline(x, cubic(x))(xq)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
        one = minkowski._spline(x, cubic(x)[:, 1])(xq)
        assert np.max(np.abs(one - want[:, 1])) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


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
        # one batch of direct integrals and one ladder for every time, each
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

    @pytest.mark.parametrize("weight", ["cos", "sin"])
    @pytest.mark.parametrize("prof", [gaussian_profile(1), pionic_profile(2, 1, 1)],
                             ids=["gauss", "pionic"])
    def test_spectral_block_meets_the_spec_as_a_whole(self, prof, weight):
        # omega = 3 and 5 cut the direct integral into 20 and more panels,
        # and r + 1e-4 puts a component on the near-DC path; each block is
        # held to the spec as a whole, not panel by panel
        r = 2.5
        ws = np.array([3.0, 5.0, r + 1e-4])
        got = _hankel_block(prof.hankel, 1, r, ws, weight, DEFAULT_SPEC)
        want = _hankel_block(prof.hankel, 1, r, ws, weight, QuadratureSpec(1e-14, 1e-12))
        tol = np.maximum(DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * np.abs(want))
        assert (np.abs(got - want) <= tol).all()

    @pytest.mark.parametrize("prof,ell", [
        (gaussian_profile(1), 1),
        (gaussian_profile(2), 2),
        (pionic_profile(2, 1, 1), 1),
    ], ids=["gauss1", "gauss2", "pionic"])
    def test_spectral_block_at_omega_r_closes_the_dc_component(self, prof, ell):
        # omega = r gives an r - omega = 0 cos component, flat out to the
        # ladder's cap and closed there with the power-law tail
        for r in (0.7, 1.3):
            got = _hankel_block(prof.hankel, ell, r, r, "cos", DEFAULT_SPEC)
            assert got == pytest.approx(wave_block(prof, ell, r, r), rel=1e-9)

    def test_tail_components_take_one_path(self, monkeypatch):
        # frequency-0, near-DC and fast components together: the direct
        # integrals, then one batch of flat tail integrals and one ladder;
        # at sigma = 20 the tail is live, and its bound does not skip it
        calls = []
        for name in ("integrate_batch", "integrate_oscillatory_batch"):
            def counted(*args, _f=getattr(minkowski, name), _n=name, **kwargs):
                calls.append(_n)
                return _f(*args, **kwargs)

            monkeypatch.setattr(minkowski, name, counted)
        ws = np.array([0.7, 0.7 + 1e-4, 1.3])
        prof = gaussian_profile(1, sigma=20.0)
        _hankel_block(prof.hankel, 1, 0.7, ws, "cos", DEFAULT_SPEC, prof.hankel_tail)
        assert calls == ["integrate_batch", "integrate_batch", "integrate_oscillatory_batch"]

    def test_gaussian_tail_bound_bounds_every_tail(self, monkeypatch):
        # wherever the envelope bound is finite, each tail component that
        # _component_tail computes is within its share of the bound, plus
        # the error estimates of the passes that computed it.  Wherever the
        # bound skips the tail, the block moves by at most 1e-3 abs_tol, and
        # not at all where the bound is below half its last bit: 420 of the
        # 432 skipped values here (of the other 12, six blocks ~1e-20 at
        # sigma = 20, ell = 5, r = 0.3, omega = 2 move in their last bits).
        # At sigma = 0.2, power ell + 10, r = 0.3 the direct integral misses
        # either way.
        passes, seen = [], []

        def spied(f):
            def call(*args, **kwargs):
                res = f(*args, **kwargs)
                passes.append(float(np.max(res.err_est, initial=0.0)))
                return res
            return call

        def component_tail(gfun, comps, r, lam0, spec, _f=minkowski._component_tail):
            passes.clear()
            seen.append((comps, _f(gfun, comps, r, lam0, spec)))
            return seen[-1][1]

        for name in ("integrate_batch", "integrate_oscillatory_batch"):
            monkeypatch.setattr(minkowski, name, spied(getattr(minkowski, name)))
        monkeypatch.setattr(minkowski, "_component_tail", component_tail)

        def env(poly, x):  # sum |c_i| x^-i, x = r lam0
            return sum(abs(c) * x**-i for i, c in enumerate(poly))

        ws = np.array([0.5, 2.0])
        checked = skipped = bitwise = 0
        for ell, sigma, dp, r, weight in itertools.product(
                (0, 1, 2, 5), (0.2, 1.0, 5.0, 20.0, 60.0), (0, 2, 10), (0.3, 1.0, 3.0), ("cos", "sin")):
            prof = gaussian_profile(ell, sigma=sigma, power=ell + dp)
            lam0 = max(40.0, 3.0 * (ell + 2) / r)
            pref = math.sqrt(2.0 / (math.pi * r))
            bound = prof.hankel_tail(lam0, 0.5 if weight == "cos" else -0.5)
            seen.clear()
            try:
                full = _hankel_block(prof.hankel, ell, r, ws, weight, DEFAULT_SPEC)
            except ToleranceNotMet:
                with pytest.raises(ToleranceNotMet):
                    _hankel_block(prof.hankel, ell, r, ws, weight, DEFAULT_SPEC, prof.hankel_tail)
                continue
            (comps, tails), = seen
            if math.isfinite(bound):
                checked += 1
                for (coef, _, _, poly), v in zip(comps, tails):
                    assert abs(v) <= abs(coef) * pref * env(poly, r * lam0) * bound + sum(passes)
            seen.clear()
            got = _hankel_block(prof.hankel, ell, r, ws, weight, DEFAULT_SPEC, prof.hankel_tail)
            if not seen:
                skipped += 1
                assert (np.abs(got - full) <= 1e-3 * DEFAULT_SPEC.abs_tol).all()
                split = sum(env(p, r * lam0) for p in bessel_trig_split(ell))
                exact = np.abs(full) * 2.0**-54 > pref * split * bound / math.sqrt(r)
                assert got[exact].tobytes() == full[exact].tobytes()
                bitwise += exact.sum()
        assert checked > skipped > 0 and bitwise >= 2 * skipped - 12

    def test_spectral_workload_gaussian_makes_no_ladder_call(self, monkeypatch):
        # field_hankel of sigma = 1 Gaussian data (H = 1, m in {0.5, 2}) at
        # the benchmark's radii and times: every tail is bounded below
        # budget, and skipped, for an array of times as for each alone; at
        # sigma = 20 the bound is above it
        calls = []

        def counted(*args, _f=minkowski.integrate_oscillatory_batch, **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)

        monkeypatch.setattr(minkowski, "integrate_oscillatory_batch", counted)
        for m in (0.5, 2.0):
            params = PhysicalParams(H=1.0, m=m)
            for r, t in [(0.3, 0.4), (1.1, 2.6), (2.5, 5.0), (0.7, 40.0)]:
                field_hankel(ModeState(1, 0, gaussian_profile(1)), params, r, t)
        ts = np.array([0.0, 0.7, 2.9, 40.0])
        for block in _blocks(gaussian_profile(1), DEFAULT_SPEC, True):
            got = block(0.7, ts)
            assert got == pytest.approx([block(0.7, float(t)) for t in ts], rel=1e-14, abs=1e-300)
        assert calls == []
        field_hankel(ModeState(1, 0, gaussian_profile(1, sigma=20.0)), PhysicalParams(H=1.0, m=2.0), 1.1, 2.6)
        assert calls

    def test_slow_dc_envelope_is_tolerance_not_met(self):
        # the transform decays like lam^-1.5, so the cos-weighted envelope
        # like lam^-1: no power-law closure holds at omega = r, while the
        # oscillating components at omega = 0.9 still converge
        def hat(lam):
            return lam**1.5 / (1.0 + lam * lam) ** 1.5

        with pytest.raises(ToleranceNotMet):
            _hankel_block(hat, 1, 0.7, 0.7, "cos", DEFAULT_SPEC)
        assert math.isfinite(abs(_hankel_block(hat, 1, 0.7, 0.9, "cos", DEFAULT_SPEC)))

    def test_unresolved_tail_frequency_is_tolerance_not_met(self):
        # at r = 4.4e16 the tail's half-period is below the float spacing at
        # lam0, and the search for its first cell edge never ended
        r = 4.3956687240143256e16
        hat = gaussian_profile(1, sigma=r).hankel
        with pytest.raises(ToleranceNotMet):
            _hankel_block(hat, 1, r, 1.4, "cos", DEFAULT_SPEC)

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

    @pytest.mark.parametrize("power", [3, 5])
    def test_riemann_vs_hankel_gaussian_higher_power(self, power):
        # the Laguerre closed form of the transform, with and without velocity
        f0 = gaussian_profile(1, power=power)
        for mode in (ModeState(ell=1, m=0, f0=f0),
                     ModeState(ell=1, m=0, f0=f0, f1=scaled_profile(f0, 0.5j))):
            for r, t in [(0.6, 0.4), (1.2, 1.3), (0.5, 2.2)]:
                a = solve_riemann(mode, r, t)
                b = solve_hankel(mode, r, t)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

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


def test_blocks_velocity_is_the_time_integral_of_data():
    # each realization's velocity block is one formula (the sin-weighted
    # transform; Kirchhoff's integral), and each is the time integral of
    # the data blocks
    for prof in (gaussian_profile(0), gaussian_profile(1), gaussian_profile(2),
                 gaussian_profile(3), gaussian_profile(5), pionic_profile(2, 1, 1)):
        quad_data, quad_velocity = _blocks(prof, DEFAULT_SPEC, False)
        data, velocity = _blocks(prof, DEFAULT_SPEC, True)
        for r in (0.7, 1.3):
            for s in (0.4, 1.1, 2.5):
                v = velocity(r, s)
                want = integrate_finite(lambda tau: data(r, tau), 0.0, s, points=(r,)).value
                assert abs(v - want) <= 1e-8 * (1.0 + abs(want))
                d = data(r, s)
                assert abs(quad_data(r, s) - d) <= 1e-7 * (1.0 + abs(d))
                assert abs(quad_velocity(r, s) - v) <= 1e-7 * (1.0 + abs(v))


class TestKirchhoffBlock:
    def test_array_of_times_equals_scalar_calls(self):
        # one batch of integrals, each refined as it would be alone
        ts = np.array([[0.0, 0.3, 0.9], [1.1, 2.5, 4.0]])
        for prof, ell in ((gaussian_profile(0), 0), (gaussian_profile(3), 3),
                          (pionic_profile(2, 1, 1), 1)):
            got = _kirchhoff_block(prof, ell, 0.9, ts, DEFAULT_SPEC)
            assert got.shape == ts.shape
            assert got[0, 0] == 0.0
            for t, g in zip(ts.ravel(), got.ravel()):
                one = _kirchhoff_block(prof, ell, 0.9, float(t), DEFAULT_SPEC)
                assert abs(g - one) <= 1e-14 * abs(one)

    def test_monopole_is_the_spherical_mean(self):
        # ell = 0, data (0, e^{-s^2}): (1/2r) int_{|r-t|}^{r+t} s e^{-s^2} ds
        for r, t in [(0.8, 0.3), (0.8, 2.1)]:
            lo, hi = abs(r - t), r + t
            want = (math.exp(-lo * lo) - math.exp(-hi * hi)) / (4.0 * r)
            got = _kirchhoff_block(gaussian_profile(0), 0, r, t, DEFAULT_SPEC)
            assert got == pytest.approx(want, rel=1e-13)
