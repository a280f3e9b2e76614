"""Special-function tests against frozen extended-precision references
(40-digit arithmetic, tools/gen_oracle_values.py) plus structural
invariants."""

import cmath
import math
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dswave import specfun
from dswave import (
    DivergentSeries,
    DomainError,
    InvalidParam,
    assoc_laguerre,
    bessel_j_half,
    hyp2f1,
    spherical_harmonic,
)

# a = b = 1/2 - i sqrt(7)/2 is the hypergeometric parameter pair of the
# heavy-mass kernels at m = 2H, so the complex cases below exercise exactly
# the arithmetic the field evaluation relies on.
A_IM = 0.5 - 0.5j * math.sqrt(7.0)

HYP2F1_CASES = {
    # (a, b, c, z): reference
    (A_IM, A_IM, 1.0, 0.3): complex(0.434792753923832584, -0.221865417913272875),
    (A_IM, A_IM, 1.0, -2.5): complex(-0.240869094144480016, 2.77917301011725437),
    (A_IM, A_IM, 1.0, 0.97): complex(-0.0275088138120917812, 0.372837302030022104),
    (0.3, 0.7, 1.0, 0.98): complex(1.93142730863981692, 0.0),
    (0.25, 0.75, 2.0, 0.98): complex(1.18320799127560546, 0.0),
    (0.25, 0.75, 3.0, 0.985): complex(1.0946072865261468, 0.0),
    (1.3, 1.2, 1.5, 0.97): complex(35.5976989611083995, 0.0),
    (0.3, 1.1, 2.17, 0.99): complex(1.38079251102145891, 0.0),
    # a = c: (1-z)^-b; the Euler reflection meets a pole of Gamma in the
    # log-case lead, which zeroes the log part
    (2.0, 0.3, 0.3, 0.97): complex(1111.11111111111111, 0.0),
}

HYP2F1_COMPLEMENT = complex(12.3308416285368641, 0.0)  # a=b=1/2, c=1, 1-z=2.4e-16

# the right half-plane and large |Im z|, the reflection half-plane, and the
# kernel-line arguments 1/2 - M/H, 3/2 - M/H at m = 0.5 and m = 2 (H = 1)
GAMMA_CASES = {
    (1+0j): complex(1.0, 0.0),
    (0.5+0j): complex(1.77245385090551603, 0.0),
    (7.25+0j): complex(1155.38101391998969, 0.0),
    (2.5+1.5j): complex(0.309936225840741353, 0.734084273621481339),
    (7.5-3.75j): complex(271.507414161526018, -663.137873068202519),
    (0.75+25j): complex(3.83104431095976855e-17, -3.12125429001042878e-17),
    (3.25-40j): complex(8.31395319032409403e-24, 3.19058979044676978e-23),
    (0.25-0.5j): complex(0.515524490135069097, 1.30732592663182539),
    (-3.7+0.4j): complex(0.114862344104568973, 0.0025574374545805196),
    (-5.5+2.1j): complex(-0.000033572764789325665, -0.0000263067586996705198),
    (-0.3-1.2j): complex(-0.247270403106432411, 0.198827793625625234),
    (-2.5+0j): complex(-0.945308720482941881, 0.0),
    (-0.914213562373095+0j): complex(-12.2054398117706573, 0.0),
    (0.08578643762690495+0j): complex(11.158378610649253, 0.0),
    (0.5-1.3228756555322954j): complex(0.190105045464590731, 0.249600439395046658),
    (1.5-1.3228756555322954j): complex(0.425242867618166672, -0.126685116941443947),
}
GAMMA_171_5 = 9.48336756682479934e+307
# real n + 1, complex a + n + m on the kernel line at m = 2, and the
# reflection half-plane
DIGAMMA_CASES = {
    (1+0j): complex(-0.577215664901532861, 0.0),
    (2+0j): complex(0.422784335098467139, 0.0),
    (7+0j): complex(1.87278433509846714, 0.0),
    (151+0j): complex(5.01396492374234594, 0.0),
    (2000+0j): complex(7.60065243870874955, 0.0),
    (0.5-1.3228756555322954j): complex(0.2525704135221506, -1.57002499239006509),
    (1.5-1.3228756555322954j): complex(0.502570413522150579, -0.90858716462391747),
    (5.5-1.3228756555322954j): complex(1.6446158680676051, -0.257886963931895584),
    (40.5-1.3228756555322954j): complex(3.68945198381618565, -0.0330581234764348233),
    (-1.7+0j): complex(-1.48571749951105671, 0.0),
    (-0.7+0j): complex(-2.07395279362870378, 0.0),
    (-2.4+0.3j): complex(1.51672447736667675, 2.31697057920307015),
}

BESSEL_HALF_CASES = {
    (0, 0.6): 0.581618188904179553,
    (2, 1e-07): 1.68208834801343864e-19,
    (3, 0.37): 0.000232354698295333148,
    (5, 2.6): 0.0112852426345278389,
    (7, 25.0): 0.0889690340906247662,
}

LAGUERRE_1_2MU_08 = 3.19985791838587319  # k=1, alpha=2 mu(ell=1, Z=2), x=0.8
Y_3_2_07_11 = complex(-0.190910202916476289, 0.262276838539064408)
Y_3_M2_07_11 = complex(-0.190910202916476289, -0.262276838539064408)
Y_HIGH_ELL_07_11 = {
    (170, 0): complex(0.271485303756135178, 0.0),
    (170, 2): complex(0.162136593165679806, -0.222746990036952774),
    (171, 0): complex(0.393879381046307436, 0.0),
    (171, 2): complex(0.232171761944933611, -0.318962919690585724),
    (200, 0): complex(0.0931167338066718657, 0.0),
    (200, 2): complex(0.0521119335111264112, -0.0715925757903878986),
    (1000, 0): complex(-0.210688839575538246, 0.0),
    (1000, 2): complex(-0.124459838071451644, 0.170985795184270966),
}
Y_LARGE_M = {  # theta = 0.7, phi = 1.1
    (5, 3): complex(0.389525209385267933, 0.0622249958056804007),
    (200, 150): complex(-3.57334180989887415e-7, 5.37478957186364228e-6),
    (200, 200): complex(7.19634404297033317e-39, 6.38647744810114803e-40),
    (1000, 500): complex(0.0993114395855025642, 0.0223420668153234745),
    (1000, 1000): complex(1.641913564689894e-191, 7.78144642209411822e-192),
}


class TestHyp2f1:
    @pytest.mark.parametrize("args,want", sorted(HYP2F1_CASES.items(), key=str))
    def test_frozen_references(self, args, want):
        a, b, c, z = args
        assert hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-12)

    def test_array_argument_on_every_branch(self):
        # one call per parameter set with its reference arguments as one
        # array: series, Pfaff and connection in the same call for the
        # heavy-mass pair, the log case (c-a-b = 0, 1, 2, and -1 through
        # the Euler reflection) and the generic connection on their own
        groups = defaultdict(list)
        for (a, b, c, z), want in HYP2F1_CASES.items():
            groups[(a, b, c)].append((z, want))
        for (a, b, c), items in groups.items():
            zs = np.array([z for z, _ in items])
            got = hyp2f1(a, b, c, zs)
            assert isinstance(got, np.ndarray) and got.shape == zs.shape
            for g, (_, want) in zip(got, items):
                assert g == pytest.approx(want, rel=1e-12)
        got = hyp2f1(0.5, 0.5, 1.0, np.ones((2, 2)), one_minus_z=np.full((2, 2), 2.4e-16))
        assert got.shape == (2, 2)
        assert np.all(np.abs(got / HYP2F1_COMPLEMENT - 1.0) <= 1e-12)

    def test_array_matches_scalar_calls(self):
        # blocks of mixed |z| are cut at the length their largest |z| needs
        zs = np.concatenate([np.linspace(-30.0, 0.999, 300), [0.0]])
        got = hyp2f1(A_IM, A_IM, 1.0, zs)
        for z, g in zip(zs, got):
            assert g == pytest.approx(hyp2f1(A_IM, A_IM, 1.0, float(z)), rel=1e-13)

    def test_array_polynomial_and_guards(self):
        y = np.array([0.37, 3.0, -4.0])
        want = 1.0 - 5.0 * y + 5.0 * y * y
        assert hyp2f1(-2.0, 5.0, 2.0, y) == pytest.approx(want, rel=1e-14)
        with pytest.raises(DivergentSeries):
            hyp2f1(0.5, 0.5, 1.0, np.array([0.3, 1.0]))
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.0, np.array([0.3, math.nan]))

    def test_gauss_value_at_fixed_points(self):
        # F(a, b; c; 0) = 1 and F(1, 1; 2; z) = -log(1-z)/z
        assert hyp2f1(0.3, 2.2, 1.7, 0.0) == 1.0
        z = 0.4
        assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log(1 - z) / z, rel=1e-13)

    def test_complement_resolves_argument_rounding_to_one(self):
        # the caller supplies 1-z exactly; z itself computes to 1.0
        got = hyp2f1(0.5, 0.5, 1.0, 1.0, one_minus_z=2.4e-16)
        assert got == pytest.approx(HYP2F1_COMPLEMENT, rel=1e-12)

    def test_divergent_at_one_without_complement(self):
        with pytest.raises(DivergentSeries):
            hyp2f1(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(DivergentSeries):
            hyp2f1(0.5, 0.5, 1.0, 1.0, one_minus_z=-1e-18)

    def test_polynomial_termination(self):
        # negative-integer a terminates the series regardless of z
        y = 0.37
        assert hyp2f1(-2.0, 5.0, 2.0, y) == pytest.approx(
            1.0 - 5.0 * y + 5.0 * y * y, rel=1e-14
        )

    @given(
        st.floats(-0.9, 0.9),
        st.floats(0.2, 2.0),
        st.floats(-1.5, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_euler_transformation(self, z, c_extra, a):
        # F(a, b; c; z) = (1-z)^{c-a-b} F(c-a, c-b; c; z)
        b = 0.4
        c = max(a, b) + c_extra
        lhs = hyp2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_kernel_parameter_line_is_smooth(self, z):
        # the c = 1, a = b case used by the kernels stays finite and matches
        # the Pfaff-transformed evaluation of the same point
        val = hyp2f1(A_IM, A_IM, 1.0, z)
        pfaff = (1.0 - z) ** (-A_IM) * hyp2f1(A_IM, 1.0 - A_IM, 1.0, z / (z - 1.0))
        assert val == pytest.approx(pfaff, rel=1e-9)


class TestGamma:
    @pytest.mark.parametrize("z,want", GAMMA_CASES.items(), ids=str)
    def test_frozen_references(self, z, want):
        assert specfun._gamma(z) == pytest.approx(want, rel=1e-14)

    def test_poles_give_a_zero_reciprocal(self):
        for k in range(4):
            g = specfun._gamma(complex(-k))
            assert g == complex(math.inf, 0.0)
            assert 1.0 / g == 0.0
        # t^(x+1/2) alone would overflow below the binary64 limit of Gamma;
        # 170 ulps of the power's rounding make this 1e-14, not 1e-15
        assert specfun._gamma(171.5 + 0j) == pytest.approx(GAMMA_171_5, rel=1e-13)
        assert specfun._gamma(172.0 + 0j) == complex(math.inf, 0.0)

    def test_digamma_frozen_references(self):
        zs = np.array(list(DIGAMMA_CASES))
        want = np.array(list(DIGAMMA_CASES.values()))
        assert np.abs(specfun._digamma(zs) / want - 1.0).max() <= 1e-14
        real = zs.real[zs.imag == 0.0]
        got = specfun._digamma(real)
        assert got.dtype == np.float64
        assert np.abs(got / want[zs.imag == 0.0].real - 1.0).max() <= 1e-14

    def test_gamma_pole_in_the_log_case_lead(self):
        # F(0.3, 2; 0.3; z) = (1-z)^-2 runs through the Euler reflection into
        # the log case at a = 0, where 1/Gamma(0) = 0 drops the log part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hyp2f1(0.3, 2.0, 0.3, 0.97)
        assert got == pytest.approx(HYP2F1_CASES[(2.0, 0.3, 0.3, 0.97)], rel=1e-13)


class TestBesselHalf:
    @pytest.mark.parametrize("args,want", sorted(BESSEL_HALF_CASES.items()))
    def test_frozen_references(self, args, want):
        assert bessel_j_half(*args) == pytest.approx(want, rel=1e-11)

    def test_array_argument(self):
        # every branch (series below 1, trig forms, upward and Miller
        # recurrences) through arrays, against the scalar references
        for (ell, z), want in BESSEL_HALF_CASES.items():
            got = bessel_j_half(ell, np.array([z, z]))
            assert got == pytest.approx([want, want], rel=1e-11)
        zs = np.array([0.3, 2.0, 4.5, 9.0])
        want = [bessel_j_half(5, float(z)) for z in zs]
        assert bessel_j_half(5, zs) == pytest.approx(want, rel=1e-15)
        with pytest.raises(DomainError):
            bessel_j_half(1, np.array([1.0, 0.0]))

    def test_zero_order_closed_form(self):
        z = 1.7
        assert bessel_j_half(0, z) == pytest.approx(
            math.sqrt(2.0 / (math.pi * z)) * math.sin(z), rel=1e-13
        )

    @given(st.integers(0, 8), st.floats(1e-3, 40.0))
    @settings(max_examples=120, deadline=None)
    def test_three_term_recurrence(self, ell, z):
        # J_{nu-1}(z) + J_{nu+1}(z) = (2 nu / z) J_nu(z), nu = ell + 3/2
        nu = ell + 1.5
        lhs = bessel_j_half(ell, z) + bessel_j_half(ell + 2, z)
        rhs = 2.0 * nu / z * bessel_j_half(ell + 1, z)
        scale = max(abs(lhs), abs(rhs), 1e-280)
        assert abs(lhs - rhs) / scale < 1e-8


class TestLaguerre:
    def test_frozen_reference(self):
        mu = math.sqrt(1.5**2 - (2.0 / 137.0) ** 2)
        assert assoc_laguerre(1, 2.0 * mu, 0.8) == pytest.approx(
            LAGUERRE_1_2MU_08, rel=1e-13
        )

    def test_low_orders_explicit(self):
        alpha, x = 0.7, 1.3
        assert assoc_laguerre(0, alpha, x) == 1.0
        assert assoc_laguerre(1, alpha, x) == pytest.approx(1.0 + alpha - x, rel=1e-14)

    @given(st.integers(1, 12), st.floats(-0.9, 3.0), st.floats(0.0, 30.0))
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, k, alpha, x):
        # (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}
        lhs = (k + 1.0) * assoc_laguerre(k + 1, alpha, x)
        rhs = (2.0 * k + 1.0 + alpha - x) * assoc_laguerre(
            k, alpha, x
        ) - (k + alpha) * assoc_laguerre(k - 1, alpha, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_rejects_bad_degree(self):
        with pytest.raises(InvalidParam):
            assoc_laguerre(-1, 0.5, 1.0)


class TestSphericalHarmonic:
    def test_frozen_reference(self):
        assert spherical_harmonic(3, 2, 0.7, 1.1) == pytest.approx(
            Y_3_2_07_11, rel=1e-12
        )
        assert spherical_harmonic(3, -2, 0.7, 1.1) == pytest.approx(
            Y_3_M2_07_11, rel=1e-12
        )

    @pytest.mark.parametrize("args,want", sorted(Y_HIGH_ELL_07_11.items()))
    def test_frozen_references_beyond_the_factorial_range(self, args, want):
        # (ell + |m|)! leaves binary64 from ell = 171; the normalization
        # divides by the product ell - |m| + 1 ... ell + |m| instead
        ell, m = args
        assert spherical_harmonic(ell, m, 0.7, 1.1) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("args,want", sorted(Y_LARGE_M.items()))
    def test_frozen_references_at_large_order(self, args, want):
        # (2m-1)!! sin^m theta leaves binary64 from m ~ 150; the normalized
        # recurrence never forms it
        ell, m = args
        y = spherical_harmonic(ell, m, 0.7, 1.1)
        assert cmath.isfinite(y)
        assert y == pytest.approx(want, rel=1e-12)

    def test_monopole_is_constant(self):
        want = 0.5 / math.sqrt(math.pi)
        assert spherical_harmonic(0, 0, 1.2, -0.4) == pytest.approx(want, rel=1e-15)

    @given(
        st.integers(0, 6),
        st.floats(0.05, 3.0),
        st.floats(-3.0, 3.0),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugation_symmetry(self, ell, theta, phi, data):
        m = data.draw(st.integers(-ell, ell))
        y = spherical_harmonic(ell, m, theta, phi)
        y_neg = spherical_harmonic(ell, -m, theta, phi)
        assert y_neg == pytest.approx((-1.0) ** m * y.conjugate(), rel=1e-10, abs=1e-12)

    def test_rejects_m_beyond_ell(self):
        with pytest.raises(IndexError):
            spherical_harmonic(2, 3, 0.3, 0.3)
