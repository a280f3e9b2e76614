"""Kernel evaluation tests: frozen extended-precision references
(tools/gen_oracle_values.py), the collapsing-mass closed forms, and the
endpoint-layer parametrization."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dswave import (
    DivergentSeries,
    DomainError,
    InvalidParam,
    PhysicalParams,
    huygens_k0,
    huygens_k1,
    kernel_eval,
    phi_of_t,
)
from dswave.kernels import kernel_eval_endpoint

KERNEL_POINTS = {
    "real_M": dict(r=0.4, t=1.0, H=1.0, m=1.0,
                   k0=complex(0.0560421780799597002, 0.0),
                   k1=complex(0.953556068387695669, 0.0)),
    "imag_M": dict(r=0.5, t=1.2, H=1.0, m=2.0,
                   k0=complex(-1.51356353428354664, 0.0),
                   k1=complex(0.611222484990330631, 0.0)),
    "H2_light": dict(r=0.2, t=0.8, H=2.0, m=0.3,
                     k0=complex(3.66077057161788533, 0.0),
                     k1=complex(2.40893601902923309, 0.0)),
}

# xi parametrizes the radius as H r = 1 - xi e^{-H t}; at these t the direct
# (r, t) form has no representable radius left between the wall and the
# integration endpoint
KERNEL_ENDPOINT_POINTS = {
    "deep_imag": dict(xi=3.7, t=30.0, H=1.0, m=2.0,
                      k0=complex(-2.20131620536763007e+18, 0.0),
                      k1=complex(-99734.1083703263201, 0.0)),
    "wall_real": dict(xi=2.0, t=45.0, H=1.0, m=1.0,
                      k0=complex(4.24176746424730859e+28, 0.0),
                      k1=complex(4286651672.50532646, 0.0)),
}

# the collapsing mass as binary64 rounds it, H = 1, where H - 2M is 5.5e-16:
# (xi, t): (k0, k1), endpoint parametrization, 60-digit mpmath
KERNEL_COLLAPSE_POINTS = {
    (8, 20): (complex(-5506.61661103655417, 0.0), complex(11013.2328974033537, 0.0)),
    (64, 20): (complex(-5506.61647117880945, 0.0), complex(11013.2328974033478, 0.0)),
    (1024, 20): (complex(-5506.61645012704765, 0.0), complex(11013.2328974033395, 0.0)),
    (8, 40): (complex(-1856078854.94488025, 0.0), complex(242582597.704895039, 0.0)),
    (64, 40): (complex(-361492652.772938003, 0.0), complex(242582597.704894908, 0.0)),
    (1024, 40): (complex(-136523579.832771111, 0.0), complex(242582597.704894725, 0.0)),
}


class TestPhysicalParams:
    def test_mass_parameter_branches(self):
        # M = sqrt(n^2 H^2 / 4 - m^2), principal branch
        light = PhysicalParams(H=1.0, m=1.0)
        assert light.M == pytest.approx(math.sqrt(1.25), rel=1e-15)
        heavy = PhysicalParams(H=1.0, m=2.0)
        assert heavy.M.real == pytest.approx(0.0, abs=1e-15)
        assert heavy.M.imag == pytest.approx(math.sqrt(7.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "m", [0.0, 0.5, 1.0, 1.4, 1.4142135, math.sqrt(2.0), 1.4142136, 1.5, 2.0, 100.0]
    )
    def test_collapse_offset_matches_extended_precision(self, m):
        # H - 2M from the binary64 m in 50 digits, for real M (light masses,
        # the collapsing one among them, where the binary64 difference of H
        # and 2M is rounding alone) and imaginary M (heavy masses)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a = Decimal("2.25") - Decimal(m) ** 2
            want = complex(float(1 - 2 * a.sqrt()), 0.0) if a >= 0 else complex(1.0, float(-2 * (-a).sqrt()))
        got = PhysicalParams(H=1.0, m=m).delta
        assert got.real == pytest.approx(want.real, rel=1e-15, abs=0.0)
        assert got.imag == pytest.approx(want.imag, rel=1e-15, abs=0.0)
        if want.imag:
            assert got.real == 1.0  # H - 2M for imaginary M: no rounding in Re

    def test_huygensian_detection(self):
        assert PhysicalParams(H=2.0, m=2.0 * math.sqrt(2.0)).is_huygensian
        assert not PhysicalParams(H=1.0, m=1.4).is_huygensian
        crit = PhysicalParams(H=1.0, m=math.sqrt(2.0))
        assert crit.M == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParam):
            PhysicalParams(H=-0.1, m=1.0)
        with pytest.raises(InvalidParam):
            PhysicalParams(H=1.0, m=-1.0)
        with pytest.raises(InvalidParam):
            PhysicalParams(H=1.0, m=1.0, n=0)


class TestPhiOfT:
    def test_values(self):
        assert phi_of_t(0.0, 1.0) == 0.0
        assert phi_of_t(1.0, 2.0) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-15)
        assert phi_of_t(3.0, 0.0) == 3.0  # flat-space limit is the identity

    def test_saturates_at_inverse_h(self):
        assert phi_of_t(800.0, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            phi_of_t(-0.5, 1.0)


class TestKernelEval:
    @pytest.mark.parametrize("name", sorted(KERNEL_POINTS))
    def test_frozen_references(self, name):
        c = KERNEL_POINTS[name]
        ev = kernel_eval(c["r"], c["t"], PhysicalParams(H=c["H"], m=c["m"]))
        assert ev.k0 == pytest.approx(c["k0"], rel=1e-12, abs=1e-12)
        assert ev.k1 == pytest.approx(c["k1"], rel=1e-12, abs=1e-12)

    def test_origin_values(self):
        # at r = 0, t = 0: z = 0, D = 4, so K1 = 1/2 and K0 = -H/4 for any mass
        for m in (0.7, math.sqrt(2.0), 2.5):
            ev = kernel_eval(0.0, 0.0, PhysicalParams(H=1.0, m=m))
            assert ev.k1 == pytest.approx(0.5, rel=1e-12)
            assert ev.k0 == pytest.approx(-0.25, rel=1e-12)

    def test_arrays_match_scalar_calls(self):
        p = PhysicalParams(H=1.0, m=2.0)
        t = 2.4
        rs = np.linspace(0.0, 0.999, 7) * phi_of_t(t, 1.0)
        ev = kernel_eval(rs, t, p)
        assert ev.k0.shape == ev.k1.shape == rs.shape
        for r, k0, k1 in zip(rs, ev.k0, ev.k1):
            one = kernel_eval(float(r), t, p)
            assert k0 == pytest.approx(one.k0, rel=1e-13)
            assert k1 == pytest.approx(one.k1, rel=1e-13)

    @pytest.mark.parametrize("t", [400.0, 746.0, 800.0])
    def test_beyond_binary64_is_domain_error(self, t):
        # K0 near the light cone at H t = 400 overflows; at H t >= 746 the
        # damping e^{-H t} itself underflows to zero
        p = PhysicalParams(H=1.0, m=2.0)
        with pytest.raises(DomainError):
            kernel_eval(1.0, t, p)
        with pytest.raises(DomainError):
            kernel_eval_endpoint(2.0, t, p)

    @pytest.mark.parametrize("m", [100.0, 300.0])
    def test_heavy_mass_is_divergent_series(self, m):
        # at m = 100 the Gauss series of the kernels cancels from terms of
        # ~3e24 (the parent returned K0 = -2.5e10 + 9.3e10j against mpmath's
        # 14.08); at m = 300 its coefficients overflow binary64
        with pytest.raises(DivergentSeries):
            kernel_eval(0.5, 1.0, PhysicalParams(H=1.0, m=m))

    def test_domain_errors(self):
        p = PhysicalParams(H=1.0, m=1.0)
        with pytest.raises(DomainError):
            kernel_eval(0.9, 0.1, p)  # H r beyond 1 - e^{-H t}
        with pytest.raises(DomainError):
            kernel_eval(-0.1, 1.0, p)
        with pytest.raises(DomainError):
            kernel_eval(0.1, -1.0, p)
        with pytest.raises(DomainError):
            kernel_eval(0.1, 1.0, PhysicalParams(H=0.0, m=1.0))

    @given(
        st.floats(0.05, 3.5),
        st.floats(0.0, 0.999),
        st.sampled_from([0.6, math.sqrt(2.0), 2.0, 3.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_imaginary_mass_parameter_keeps_kernels_real(self, t, frac, m_over_h):
        # for every mass the kernels are real functions; complex arithmetic
        # only enters through the M-dependent factors, which pair off
        h = 1.0
        p = PhysicalParams(H=h, m=m_over_h * h)
        r = frac * phi_of_t(t, h)
        ev = kernel_eval(r, t, p)
        assert abs(ev.k0.imag) <= 1e-10 * max(1.0, abs(ev.k0))
        assert abs(ev.k1.imag) <= 1e-10 * max(1.0, abs(ev.k1))


class TestHuygensClosedForms:
    def test_closed_form_values(self):
        assert huygens_k1(0.0, 1.0) == 0.5
        assert huygens_k0(0.0, 2.0) == -0.5
        assert huygens_k1(1.3, 2.0) == pytest.approx(0.5 * math.exp(1.3), rel=1e-15)

    @pytest.mark.parametrize("H", [0.5, 1.0, 2.0])
    def test_general_kernels_collapse_on_the_critical_mass(self, H):
        p = PhysicalParams(H=H, m=math.sqrt(2.0) * H)
        for t, frac in [(0.3, 0.2), (1.0, 0.7), (4.0, 0.97), (10.0, 0.5)]:
            r = frac * phi_of_t(t, H)
            ev = kernel_eval(r, t, p)
            assert ev.k1 == pytest.approx(huygens_k1(t, H), rel=1e-10)
            assert ev.k0 == pytest.approx(huygens_k0(t, H), rel=1e-10)


class TestEndpointParametrization:
    @pytest.mark.parametrize("xi,t", sorted(KERNEL_COLLAPSE_POINTS))
    def test_frozen_references_at_the_rounded_collapsing_mass(self, xi, t):
        # K0 is ill-conditioned in M there: only an exact H - 2M keeps it
        k0, k1 = KERNEL_COLLAPSE_POINTS[xi, t]
        ev = kernel_eval_endpoint(float(xi), float(t), PhysicalParams(H=1.0, m=math.sqrt(2.0)))
        assert ev.k0 == pytest.approx(k0, rel=1e-10)
        assert ev.k1 == pytest.approx(k1, rel=1e-10)

    @pytest.mark.parametrize("t", [20.0, 30.0, 40.0])
    def test_k0_has_no_jumps_between_neighbouring_xi_at_the_collapsing_mass(self, t):
        # K0 is smooth in xi (|d ln K0 / d ln xi| < 1): on a geometric grid
        # of ratio 1.0018 neighbours differ by less than 0.2%, where rounding
        # 1 - (H r)^2 made some jump by 12% at t = 40
        xi = np.geomspace(1.5, 2000.0, 4000)
        k0 = kernel_eval_endpoint(xi, t, PhysicalParams(H=1.0, m=math.sqrt(2.0))).k0
        assert np.max(np.abs(np.diff(k0)) / np.abs(k0[:-1])) <= 5e-3

    @pytest.mark.parametrize("name", sorted(KERNEL_ENDPOINT_POINTS))
    def test_frozen_references(self, name):
        c = KERNEL_ENDPOINT_POINTS[name]
        ev = kernel_eval_endpoint(c["xi"], c["t"], PhysicalParams(H=c["H"], m=c["m"]))
        assert ev.k0 == pytest.approx(c["k0"], rel=1e-11)
        assert ev.k1 == pytest.approx(c["k1"], rel=1e-11)

    @given(st.floats(1.0, 50.0), st.floats(3.0, 12.0))
    @settings(max_examples=60, deadline=None)
    @example(xi=8.0, t=8.0)
    @example(xi=34.4, t=9.4)
    def test_matches_direct_form_at_moderate_times(self, xi, t):
        # where both parametrizations are well conditioned they must agree
        # at one point: the rounded radius r and the xi it stands for (r
        # carries an absolute rounding of order eps, a relative eps/(xi q)
        # of the distance 1 - H r that the kernels resolve)
        p = PhysicalParams(H=1.0, m=2.0)
        q = math.exp(-t)
        if xi * q >= 0.999:
            return
        r = (1.0 - xi * q) / 1.0
        direct = kernel_eval(r, t, p)
        layered = kernel_eval_endpoint((1.0 - r) / q, t, p)
        assert layered.k0 == pytest.approx(direct.k0, rel=1e-9)
        assert layered.k1 == pytest.approx(direct.k1, rel=1e-9)

    def test_domain_errors(self):
        p = PhysicalParams(H=1.0, m=1.0)
        with pytest.raises(DomainError):
            kernel_eval_endpoint(0.5, 10.0, p)  # xi < 1 is the kernel interior
        with pytest.raises(DomainError):
            kernel_eval_endpoint(3.0, 0.1, p)  # radius would be negative
