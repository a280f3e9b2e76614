"""Adaptive and semi-infinite quadrature behavior tests."""

import math

import numpy as np
import pytest

from dswave import (
    DEFAULT_SPEC,
    InvalidParam,
    NonFiniteIntegrand,
    QuadratureSpec,
    TailNotNegligible,
    ToleranceNotMet,
    integrate_finite,
    integrate_semi_infinite_oscillatory,
)
from dswave import quadrature
from dswave.quadrature import integrate_batch, integrate_oscillatory_batch
from dswave.specfun import bessel_j_half

SI_PI = 1.85193705198246617  # Si(pi) at the binary64 pi (tools/gen_oracle_values.py)


class TestSpecValidation:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(InvalidParam):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(InvalidParam):
            QuadratureSpec(rel_tol=-1e-8)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.nan},
        {"rel_tol": math.inf}, {"max_subdivisions": math.nan}, {"max_subdivisions": 200.5},
        {"max_subdivisions": 7},
    ])
    def test_rejects_settings_that_hold_nothing(self, kwargs):
        # a nan tolerance passed every comparison, so no integral was refined
        with pytest.raises(InvalidParam):
            QuadratureSpec(**kwargs)

    def test_defaults_are_usable(self):
        assert DEFAULT_SPEC.abs_tol > 0


class TestIntegrateFinite:
    def test_polynomial_exact(self):
        res = integrate_finite(lambda x: x**3, 0.0, 1.0)
        assert res.value == pytest.approx(0.25, rel=1e-13)
        assert res.err_est <= max(DEFAULT_SPEC.abs_tol, abs(res.value) * 1e-7)

    def test_complex_integrand(self):
        res = integrate_finite(lambda x: np.cos(x) + 1j * np.sin(x), 0.0, math.pi)
        assert res.value == pytest.approx(2j, rel=1e-12)

    def test_rejects_reversed_limits(self):
        with pytest.raises(InvalidParam):
            integrate_finite(lambda x: np.exp(-x), 2.0, 0.0)

    def test_endpoint_singularity(self):
        res = integrate_finite(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0)
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_split_points_resolve_interior_kink(self):
        res = integrate_finite(lambda x: abs(x - 1.0), 0.0, 2.0, points=(1.0,))
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_split_points_outside_range_ignored(self):
        res = integrate_finite(lambda x: x, 0.0, 1.0, points=(17.0, -3.0))
        assert res.value == pytest.approx(0.5, rel=1e-13)

    def test_tolerance_failure_carries_best_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
        with pytest.raises(ToleranceNotMet) as info:
            integrate_finite(lambda x: np.cos(40.0 * x * x), 0.0, 3.0, spec)
        assert math.isfinite(info.value.err_est)
        assert abs(info.value.value) < 10.0  # the estimate itself stays sane
        assert isinstance(info.value.value, complex)
        assert isinstance(info.value.err_est, float)

    def test_subdivision_limit_counts_per_piece(self):
        # max_subdivisions = 8 intervals cannot resolve the chirp on [0, 3]
        # (see above), but they can on each of the 12 pieces the break
        # points cut it into: a cut integral keeps the room of its pieces
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=8)
        f = lambda x: np.cos(40.0 * x * x)
        res = integrate_finite(f, 0.0, 3.0, spec, points=tuple(0.25 * np.arange(1, 12)))
        assert res.err_est <= 1e-12
        want = integrate_finite(f, 0.0, 3.0, QuadratureSpec(1e-13, 1e-13, 1000)).value
        assert abs(res.value - want) <= 1e-12

    def test_miss_inside_the_integrand_passes_through(self):
        # an inner batch that misses inside the integrand reaches the caller
        # as the inner integral's own ToleranceNotMet, arrays and all
        tight = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-17, max_subdivisions=8)
        raised = []

        def f(x):
            try:
                return integrate_batch(lambda s, k: np.cos(40.0 * s * s), 0.0, x, tight).value
            except ToleranceNotMet as exc:
                raised.append(exc)
                raise

        with pytest.raises(ToleranceNotMet) as info:
            integrate_finite(f, 0.0, 1.0)
        assert info.value is raised[0]
        assert info.value.value.shape == (1, 21)

    def test_nan_integrand_detected(self):
        with pytest.raises(NonFiniteIntegrand):
            integrate_finite(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


class TestIntegrateBatch:
    def test_batch_equals_integrals_done_one_at_a_time(self):
        # each integral of a batch is refined on its own: same bits as alone
        freq = np.array([0.5, 3.0, 17.0, 40.0])
        hi = np.array([1.0, 2.0, 0.5, 3.0])
        batch = integrate_batch(lambda x, k: np.exp(1j * freq[k] * x * x), 0.0, hi)
        for i in range(freq.size):
            one = integrate_finite(lambda x: np.exp(1j * freq[i] * x * x), 0.0, hi[i])
            assert batch.value[i] == one.value
            assert batch.err_est[i] == one.err_est

    def test_integrate_finite_over_array_limits_is_the_batch(self):
        freq = np.array([0.5, 3.0, 17.0])
        hi = np.array([1.0, 2.0, 0.5])
        f = lambda x, k: np.exp(1j * freq[k] * x * x)
        batch = integrate_batch(f, 0.0, hi, points=(0.3,))
        res = integrate_finite(f, np.zeros(3), hi, points=(0.3,))
        assert np.array_equal(res.value, batch.value)
        assert np.array_equal(res.err_est, batch.err_est)

    def test_scalar_limits_give_scalars(self):
        res = integrate_batch(lambda x, k: x * x, 0.0, 3.0)
        assert isinstance(res.value, complex) and isinstance(res.err_est, float)
        assert res.value == pytest.approx(9.0, rel=1e-14)

    def test_shapes_and_empty_intervals(self):
        a = np.array([[0.0, 1.0], [2.0, 3.0]])
        res = integrate_batch(lambda x, k: x, a, 3.0)
        assert res.value.shape == (2, 2)
        want = 0.5 * (9.0 - a**2)
        assert np.allclose(res.value, want, rtol=1e-14, atol=0.0)
        assert res.err_est[1, 1] == 0.0

    @pytest.mark.parametrize("points", [(), (0.5,)])
    def test_empty_integrals_never_reach_the_integrand(self, points):
        # an integrand that is not finite at the limits of the empty ones;
        # a mixed batch and an all-empty one sum in complex and float alike,
        # so estimates added to them later keep their fractions
        f = lambda x, k: 1.0 / (x - 1.0) ** 2 + 0.0 * k
        res = integrate_batch(f, [1.0, 2.0, 1.0], [1.0, 3.0, 1.0], points=points)
        assert res.value[0] == res.value[2] == 0.0
        assert res.value[1] == pytest.approx(0.5, rel=1e-13)
        assert res.value.dtype == np.complex128 and res.err_est.dtype == np.float64
        called = []
        res = integrate_batch(lambda x, k: called.append(x) or x, [1.0, 1.0], 1.0, points=points)
        assert not called and (res.value == 0.0).all() and (res.err_est == 0.0).all()
        assert res.value.dtype == np.complex128 and res.err_est.dtype == np.float64

    def test_split_points_apply_to_every_integral(self):
        lo = np.array([0.0, 0.5, 1.5])
        res = integrate_batch(lambda x, k: np.abs(x - 1.0), lo, 2.0, points=(1.0,))
        want = [1.0, 0.625, 0.375]
        assert res.value.real == pytest.approx(want, rel=1e-13)

    def test_break_point_per_integral(self):
        # one row of break points per integral (nan: none) cuts each integral
        # as a shared tuple holding that row would cut it alone
        lo, hi = np.array([0.0, 0.0, 1.0]), np.array([2.0, 2.0, 3.0])
        cuts = np.array([[1.0], [np.nan], [2.5]])
        kink = np.array([1.0, 0.7, 2.5])
        f = lambda x, k: np.abs(x - kink[k])
        value, err, _ = quadrature.quad(f, lo, hi, 1e-10, 1e-8, 200, cuts)
        assert value.real == pytest.approx([1.0, 1.09, 1.25], rel=1e-8)
        for i in range(3):
            pts = () if np.isnan(cuts[i, 0]) else (cuts[i, 0],)
            v, e, _ = quadrature.quad(lambda x, k: f(x, i), lo[i:i + 1], hi[i:i + 1],
                                      1e-10, 1e-8, 200, pts)
            assert value[i] == v[0] and err[i] == e[0]

    def test_interval_cap_per_integrand_call(self, monkeypatch):
        # the integrand sees at most _MAX_INTERVALS intervals a call, and the
        # batch comes out as one uncapped pass
        freq = np.array([0.5, 3.0, 17.0, 40.0, 90.0])
        hi = np.array([1.0, 2.0, 0.5, 3.0, 2.5])
        sizes = []

        def f(x, k):
            sizes.append(x.shape[0])
            return np.exp(1j * freq[k] * x * x)

        whole = integrate_batch(f, 0.0, hi, points=(0.3, 1.1))
        assert max(sizes) > 3
        sizes.clear()
        monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 3)
        capped = integrate_batch(f, 0.0, hi, points=(0.3, 1.1))
        assert max(sizes) == 3
        assert np.array_equal(capped.value, whole.value)
        assert np.array_equal(capped.err_est, whole.err_est)

    def test_tolerance_failure_carries_every_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
        freq = np.array([1.0, 40.0])
        with pytest.raises(ToleranceNotMet) as info:
            integrate_batch(lambda x, k: np.cos(freq[k] * x * x), [0.0, 0.0], 3.0, spec)
        value, err = info.value.value, info.value.err_est
        assert value.shape == err.shape == (2,)
        # the smooth integral converged inside the failing batch
        alone = integrate_finite(lambda x: np.cos(x * x), 0.0, 3.0, spec)
        assert value[0] == alone.value and err[0] <= 1e-13
        assert err[1] > 1e-13 and np.isfinite(err[1])

    def test_nan_in_one_integral_is_detected(self):
        shift = np.array([0.0, 0.6])
        with pytest.raises(NonFiniteIntegrand):
            integrate_batch(
                lambda x, k: np.where(x + shift[k] > 1.2, np.nan, 1.0), [0.0, 0.0], 1.0
            )

    def test_rejects_reversed_limits(self):
        with pytest.raises(InvalidParam):
            integrate_batch(lambda x, k: x, [0.0, 2.0], [1.0, 1.0])


class TestSemiInfiniteOscillatory:
    def test_plain_exponential_decay(self):
        res = integrate_semi_infinite_oscillatory(lambda x: np.exp(-2.0 * x), 1.0)
        assert res.value == pytest.approx(0.5, rel=1e-9)

    def test_oscillatory_algebraic_decay(self):
        # int_0^inf cos(x)/(1+x^2) dx = pi/(2 e)
        res = integrate_semi_infinite_oscillatory(
            lambda x: np.cos(x) / (1.0 + x * x), 2.0 * math.pi
        )
        assert res.value == pytest.approx(math.pi / (2.0 * math.e), rel=1e-8)

    def test_bessel_area_is_one(self):
        # int_0^inf J_{1/2}(x) dx = 1; the x^{-1/2} envelope leans on the
        # alternating-series acceleration
        res = integrate_semi_infinite_oscillatory(
            lambda x: bessel_j_half(0, x), 2.0 * math.pi
        )
        assert res.value == pytest.approx(1.0, rel=1e-6)

    def test_start_and_first_boundary(self):
        # int_pi^inf cos(x)/x^2 dx = -1/pi - pi/2 + Si(pi) by parts
        want = -1.0 / math.pi - 0.5 * math.pi + SI_PI
        res = integrate_oscillatory_batch(
            lambda x, k: np.cos(x) / (x * x),
            2.0 * math.pi,
            start=math.pi,
            first_boundary=1.5 * math.pi,
        )
        assert res.value == pytest.approx(want, rel=1e-7)

    def test_truncation_limit_raises(self):
        # positive cell sums defeat the alternating-series acceleration, and
        # the x^{-1.2} envelope is still far above the tail budget at
        # lambda_max
        with pytest.raises(TailNotNegligible):
            integrate_oscillatory_batch(
                lambda x, k: (1.0 + np.cos(x)) / (1.0 + x) ** 1.2, 2.0 * math.pi, lambda_max=40.0
            )

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidParam):
            integrate_semi_infinite_oscillatory(lambda x: np.exp(-x), 0.0)

    def test_batch_equals_one_member_ladders(self):
        # decay-dominated, accelerated, offset-start and truncated members on
        # one ladder; the truncated one makes the batch raise, carrying every
        # member's value as its own ladder gives it
        fns = [
            lambda x: np.exp(-2.0 * x),
            lambda x: np.cos(x) / (1.0 + x * x),
            lambda x: np.cos(x) / (x * x),
            lambda x: (1.0 + np.cos(x)) / (1.0 + x) ** 1.2,
            lambda x: np.sin(3.0 * x) * np.exp(-0.1 * x),
        ]
        periods = [1.0, 2.0 * math.pi, 2.0 * math.pi, 2.0 * math.pi, 2.0 * math.pi / 3.0]
        starts = [0.0, 0.0, math.pi, 0.0, 0.0]
        firsts = [0.0, 0.0, 1.5 * math.pi, 0.0, math.pi / 3.0]

        def f(x, k):
            k = np.broadcast_to(k, x.shape)
            out = np.zeros(x.shape)
            for i, fn in enumerate(fns):
                out[k == i] = fn(x[k == i])
            return out

        with pytest.raises(TailNotNegligible) as batch:
            integrate_oscillatory_batch(
                f, periods, start=starts, first_boundary=firsts, lambda_max=200.0
            )
        raised = []
        for i, fn in enumerate(fns):
            try:
                one = integrate_oscillatory_batch(
                    lambda x, k, fn=fn: fn(x),
                    periods[i],
                    start=starts[i],
                    first_boundary=firsts[i],
                    lambda_max=200.0,
                )
            except TailNotNegligible as exc:
                one = exc
                raised.append(i)
            assert batch.value.value[i] == pytest.approx(one.value, rel=1e-15)
            assert batch.value.err_est[i] == pytest.approx(one.err_est, rel=1e-12)
        assert raised == [3]

    def test_per_member_cap_equals_a_spec_cap(self):
        # lambda_max given per member: each member comes out as a one-member
        # ladder with its cap, and only the slow one misses
        fns = [
            lambda x: np.cos(x) * np.exp(-x),
            lambda x: (1.0 + np.cos(x)) / (1.0 + x) ** 1.2,
            lambda x: np.sin(3.0 * x) * np.exp(-0.1 * x),
        ]
        periods = [2.0 * math.pi, 2.0 * math.pi, 2.0 * math.pi / 3.0]
        caps = [50.0, 200.0, 1e9]

        def f(x, k):
            k = np.broadcast_to(k, x.shape)
            out = np.zeros(x.shape)
            for i, fn in enumerate(fns):
                out[k == i] = fn(x[k == i])
            return out

        with pytest.raises(TailNotNegligible) as batch:
            integrate_oscillatory_batch(f, periods, lambda_max=caps)
        assert "lambda_max=200.0" in str(batch.value)
        for i, fn in enumerate(fns):
            try:
                one = integrate_oscillatory_batch(
                    lambda x, k, fn=fn: fn(x), periods[i], lambda_max=caps[i]
                )
            except TailNotNegligible as exc:
                assert i == 1
                one = exc
            assert batch.value.value[i] == pytest.approx(one.value, rel=1e-15)
            assert batch.value.err_est[i] == pytest.approx(one.err_est, rel=1e-12)
