"""Expanding-background field tests: frozen extended-precision anchors
(tools/gen_oracle_values.py), bound-state profiles, cross-method agreement,
and the late-time decay machinery."""

import math

import numpy as np
import pytest

from dswave import (
    ALPHA_FS,
    DegenerateFit,
    DomainError,
    InvalidParam,
    ModeState,
    PhysicalParams,
    QuadratureSpec,
    RadialProfile,
    ToleranceNotMet,
    decay_classify,
    decay_fit,
    evaluate_grid,
    field_hankel,
    field_hankel_huygens,
    field_riemann,
    field_riemann_huygens,
    gaussian_profile,
    integrate_finite,
    ita_assemble,
    ita_remainder,
    pionic_mode,
    pionic_profile,
    scaled_profile,
    spherical_harmonic,
    wave_block,
)
from dswave import desitter, errors, minkowski
from dswave.desitter import FieldGrid

SQRT2 = math.sqrt(2.0)

MU_MINUS_HALF_Z1 = -5.32821825895e-5
MU_MINUS_HALF_Z2 = -0.000213162812779
PIONIC_F0_312_08 = 1.71597032758528369  # n=3, ell=1, Z=2, C=1, r=0.8
PIONIC_L2_NORM_21 = 4.89884844741294377  # ||r F0||_2 for n=2, ell=1, Z=1
PIONIC_HAT_21 = {
    0.7: 4.61258856966495286,
    2.3: 0.0654755776367436552,
}

# bare kernel convolution int_0^{phi(t)} (2 K0 + 3 H K1) v0 ds at r=0.7 for
# the gaussian ell=1 block, H=1, m=2; ita_remainder carries an extra
# e^{-3 H t / 2} damping
ITA_CONV_M2 = {
    1.2: complex(-0.0932050855140683421, 0.0),
    20.0: complex(5824.85909526063097, 0.0),
}

# collapsing-mass pionic ground state at r = 1/H (H=1): lead plus plain time
# integral in closed form
HUYGENS_PIONIC_R1H = {
    0.5: 0.137745688497679748,
    1.5: 0.0566629983476057628,
}


class TestPionicProfiles:
    def test_small_r_exponent_constants(self):
        assert pionic_profile(1, 0, 1).mu - 0.5 == pytest.approx(
            MU_MINUS_HALF_Z1, rel=1e-9
        )
        assert pionic_profile(1, 0, 2).mu - 0.5 == pytest.approx(
            MU_MINUS_HALF_Z2, rel=1e-9
        )

    def test_fine_structure_constant(self):
        assert ALPHA_FS == 1.0 / 137.0

    def test_profile_value(self):
        assert pionic_profile(3, 1, 2).func(0.8) == pytest.approx(
            PIONIC_F0_312_08, rel=1e-12
        )

    def test_l2_normalization(self):
        prof = pionic_profile(2, 1, 1, normalization="l2")
        raw = pionic_profile(2, 1, 1)
        assert prof(1.3) == pytest.approx(raw(1.3) / PIONIC_L2_NORM_21, rel=1e-10)
        norm2 = integrate_finite(
            lambda r: abs(prof(r)) ** 2 * r * r, 1e-9, 60.0
        ).value
        assert norm2.real == pytest.approx(1.0, rel=1e-7)

    def test_closed_form_transform(self):
        prof = pionic_profile(2, 1, 1)
        for lam, want in PIONIC_HAT_21.items():
            assert prof.hankel(lam) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParam):
            pionic_profile(1, 1, 1)  # needs ell < n
        with pytest.raises(InvalidParam):
            pionic_profile(0, 0, 1)
        with pytest.raises(InvalidParam):
            pionic_profile(1, 0, 0)
        with pytest.raises(DomainError):
            pionic_profile(1, 0, 1, alpha=0.9)  # Z alpha beyond the exponent
        for norm in (1.0, "l2"):
            with pytest.raises(DomainError):
                pionic_profile(200, 0, normalization=norm)  # Gamma beyond binary64

    def test_pionic_mode_velocity(self):
        mode = pionic_mode(2, 1, energy=0.7)
        assert mode.f1 is not None
        assert mode.f1(0.9) == pytest.approx(-0.7j * mode.f0(0.9), rel=1e-14)
        assert pionic_mode(2, 1).f1 is None


class TestAssemblyAnchors:
    @pytest.mark.parametrize("t,conv", sorted(ITA_CONV_M2.items()))
    def test_kernel_convolution_remainder(self, t, conv):
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=2.0)
        want = conv * math.exp(-1.5 * t)
        got = ita_remainder(mode, params, 0.7, t)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("t,want", sorted(HUYGENS_PIONIC_R1H.items()))
    def test_collapsing_mass_pionic_closed_form(self, t, want):
        mode = pionic_mode(1, 0)
        params = PhysicalParams(H=1.0, m=SQRT2)
        got = field_riemann_huygens(mode, params, 1.0, t)
        assert got == pytest.approx(want, rel=1e-9)

    def test_remainder_requires_valid_domain(self):
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        params = PhysicalParams(H=1.0, m=1.0)
        with pytest.raises(DomainError):
            ita_remainder(mode, params, -0.5, 1.0)
        with pytest.raises(DomainError):
            ita_remainder(mode, params, 0.5, -1.0)

    @pytest.mark.parametrize(
        "entry",
        [
            "field_riemann",
            "field_riemann_huygens",
            "field_hankel",
            "field_hankel_huygens",
            "ita_remainder",
            "ita_assemble",
        ],
    )
    @pytest.mark.parametrize(
        "r,t", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_non_finite_point_is_domain_error(self, entry, r, t):
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=SQRT2)
        calls = {
            "field_riemann": lambda: field_riemann(mode, params, r, t),
            "field_riemann_huygens": lambda: field_riemann_huygens(mode, params, r, t),
            "field_hankel": lambda: field_hankel(mode, params, r, t),
            "field_hankel_huygens": lambda: field_hankel_huygens(mode, params, r, t),
            "ita_remainder": lambda: ita_remainder(mode, params, r, t),
            "ita_assemble": lambda: ita_assemble(
                lambda rr, s: wave_block(mode.f0, 1, rr, s), params, r, t
            ),
        }
        with pytest.raises(DomainError):
            calls[entry]()

    def test_collapsing_forms_admit_the_flat_limit(self):
        # H = 0, m = 0 is the collapsing mass of flat space: both Huygens
        # forms reduce to Y_lm times the Minkowski wave block
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=0.0, m=0.0)
        want = spherical_harmonic(1, 0, 0.0, 0.0) * wave_block(mode.f0, 1, 0.7, 1.3)
        assert field_riemann_huygens(mode, params, 0.7, 1.3) == pytest.approx(want, rel=1e-9)
        assert field_hankel_huygens(mode, params, 0.7, 1.3) == pytest.approx(want, rel=1e-7)
        with pytest.raises(DomainError):
            field_riemann(mode, params, 0.7, 1.3)

    def test_inner_wave_block_miss_is_tolerance_not_met(self):
        # a tolerance below the rule's roundoff floor cannot be met by the
        # wave blocks nested in the convolution; their miss surfaces as such
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=1.0)
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-16)
        with pytest.raises(ToleranceNotMet):
            ita_remainder(mode, params, 0.7, 2.0, spec)
        field = evaluate_grid(mode, params, "riemann", [0.7], [2.0], spec=spec)
        assert field.grid.err_flags == [["ToleranceNotMet"]]
        assert math.isnan(field.grid.values[0, 0].real)

    def test_weak_small_r_exponent_rejected(self):
        # r^{mu-1/2} data with mu <= ell - 3/2 cannot feed an ell block
        bad = RadialProfile(func=lambda x: x**-0.3, mu=0.2, parity_ell=2)
        mode = ModeState(ell=2, m=0, f0=bad)
        with pytest.raises(InvalidParam):
            field_riemann(mode, PhysicalParams(H=1.0, m=1.0), 0.5, 0.5)

    def test_rule_sum_beyond_binary64_raises(self):
        # finite data whose quadrature sums overflow: an exception from
        # dswave.errors, not a silent nan, even with the warnings off
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0, amplitude=1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(errors.NonFiniteIntegrand):
                field_riemann(mode, PhysicalParams(H=1.0, m=SQRT2), 0.5, 1.0)


class TestFieldMethods:
    def test_initial_data_recovery_all_methods(self):
        mode = ModeState(ell=1, m=1, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=SQRT2)
        theta, phi = 0.9, 0.4
        y = spherical_harmonic(1, 1, theta, phi)
        want = y * gaussian_profile(1)(0.8)
        for fn in (field_riemann, field_hankel, field_riemann_huygens, field_hankel_huygens):
            got = fn(mode, params, 0.8, 0.0, theta, phi)
            assert got == pytest.approx(want, rel=1e-9), fn.__name__

    def test_riemann_vs_hankel(self):
        mode = ModeState(ell=2, m=0, f0=gaussian_profile(2))
        params = PhysicalParams(H=1.0, m=1.0)
        for r, t in [(0.6, 0.5), (1.1, 1.5)]:
            a = field_riemann(mode, params, r, t)
            b = field_hankel(mode, params, r, t)
            assert abs(a - b) <= 1e-7 * (1.0 + abs(a))

    def test_hankel_converges_where_riemann_does(self):
        # late times, where the convolution needs the endpoint layer
        cases = [
            (ModeState(ell=1, m=0, f0=gaussian_profile(1)), 40.0),
            (pionic_mode(2, 1, energy=2.0), 10.0),
            (pionic_mode(2, 1, energy=2.0), 20.0),
        ]
        params = PhysicalParams(H=1.0, m=2.0)
        for mode, t in cases:
            a = field_riemann(mode, params, 0.7, t)
            b = field_hankel(mode, params, 0.7, t)
            assert abs(a - b) <= 1e-5 * (1.0 + abs(a))

    def test_huygens_methods_agree_with_general_ones(self):
        mode = pionic_mode(2, 1, energy=SQRT2)
        params = PhysicalParams(H=1.0, m=SQRT2)
        for r, t in [(0.7, 0.6), (1.3, 2.1)]:
            vals = [
                field_riemann(mode, params, r, t),
                field_hankel(mode, params, r, t),
                field_riemann_huygens(mode, params, r, t),
                field_hankel_huygens(mode, params, r, t),
            ]
            spread = max(abs(v - vals[0]) for v in vals)
            assert spread <= 1e-7 * (1.0 + abs(vals[0]))

    @pytest.mark.parametrize("r,t", [(0.7, 5.0), (0.7, 20.0), (0.3, 40.0), (0.95, 12.0)])
    def test_late_convolution_matches_huygens_forms(self, r, t):
        # every point runs through the endpoint layer with a velocity
        # profile; on the collapsing mass the convolution is a plain time
        # integral, an independent result.  The bound is relative: values
        # reach 1e-19, far below what a (1 + |a|) bound can see
        mode = pionic_mode(2, 1, energy=SQRT2)
        params = PhysicalParams(H=1.0, m=SQRT2)
        refs = [
            field_riemann_huygens(mode, params, r, t),
            field_hankel_huygens(mode, params, r, t),
        ]
        for fn in (field_riemann, field_hankel):
            got = fn(mode, params, r, t)
            for ref in refs:
                assert abs(got - ref) <= 1e-7 * abs(ref), fn.__name__

    def test_huygens_methods_reject_other_masses(self):
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        params = PhysicalParams(H=1.0, m=1.0)
        with pytest.raises(InvalidParam):
            field_riemann_huygens(mode, params, 0.5, 0.5)

    def test_spectral_arm_flags_ell_beyond_the_bessel_split(self):
        # from ell = 151 the trig split of the spectral tail overflows; the
        # point is refused before any arithmetic meets the infinities (the
        # suite turns a RuntimeWarning into an error)
        mode = ModeState(170, 0, gaussian_profile(170, 0.5))
        with pytest.raises(errors.NonFiniteIntegrand, match="ell=170"):
            field_hankel(mode, PhysicalParams(H=1.0, m=2.0), 1.5, 1.0)

    def test_heavy_mass_field_is_real(self):
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=2.0)
        for r, t in [(0.4, 0.8), (1.5, 1.7)]:
            v = field_riemann(mode, params, r, t)
            assert abs(v.imag) <= 1e-10 * abs(v)


class TestEvaluateGrid:
    def test_grid_shape_and_flags(self):
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        params = PhysicalParams(H=1.0, m=1.0)
        field = evaluate_grid(mode, params, "riemann", [0.5, 1.0], [0.0, 0.7, 1.3])
        assert field.grid.values.shape == (2, 3)
        assert all(f == "ok" for row in field.grid.err_flags for f in row)
        assert field.grid.r_values == (0.5, 1.0)
        assert field.grid.t_values == (0.0, 0.7, 1.3)
        assert field.grid.method == "riemann"

    def test_late_time_overflow_is_flagged(self):
        # at H t = 400 the endpoint-layer kernels leave the binary64 range;
        # at H t = 800 e^{-H t} underflows
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=2.0)
        field = evaluate_grid(mode, params, "riemann", [0.7], [1.0, 400.0, 800.0])
        ok, *late = field.grid.err_flags[0]
        assert ok == "ok"
        for j, flag in enumerate(late, 1):
            assert issubclass(getattr(errors, flag), errors.QuadratureFailure)
            assert math.isnan(field.grid.values[0, j].real)

    def test_outer_scalar_miss_is_stored_as_nan(self):
        # the monopole block has no inner integral, so the convolution's own
        # (scalar) integral is the one that misses; its estimate is not the
        # field and must not be stored as the point's value
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        params = PhysicalParams(H=1.0, m=1.0)
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-16)
        with pytest.raises(ToleranceNotMet) as miss:
            ita_remainder(mode, params, 0.7, 2.0, spec)
        assert np.ndim(miss.value.value) == 0
        field = evaluate_grid(mode, params, "riemann", [0.7], [2.0], spec=spec)
        assert field.grid.err_flags == [["ToleranceNotMet"]]
        assert math.isnan(field.grid.values[0, 0].real)

    def test_unknown_method_rejected(self):
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        with pytest.raises(InvalidParam):
            evaluate_grid(mode, PhysicalParams(H=1.0, m=1.0), "bogus", [0.5], [0.0])

    def test_fieldgrid_rejects_unflagged_nonfinite(self):
        vals = np.array([[1.0 + 0j, math.nan]])
        with pytest.raises(InvalidParam):
            FieldGrid(
                r_values=(1.0,),
                t_values=(0.0, 1.0),
                values=vals,
                err_flags=[["ok", "ok"]],
            )
        # the same grid is fine once the bad entry is flagged
        grid = FieldGrid(
            r_values=(1.0,),
            t_values=(0.0, 1.0),
            values=vals,
            err_flags=[["ok", "ToleranceNotMet"]],
        )
        assert grid.err_flags[0][1] == "ToleranceNotMet"


class TestArrayOfTimes:
    # t = 0, early times (e^{-H t} >= 0.05) and late ones in one array; the
    # repeated t = 14 sits in a different block of the same passes
    TIMES = np.array([14.0, 0.0, 0.8, 2.5, 22.0, 3.5, 14.0])

    @staticmethod
    def _modes(m):
        # the pionic atom with its velocity, and a Gaussian without
        return [pionic_mode(2, 1, energy=m), ModeState(ell=1, m=0, f0=gaussian_profile(1))]

    # at r = 0.85 the blocks kink inside the endpoint layer of the late times
    @pytest.mark.parametrize("r", [0.7, 0.85])
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_remainder_equals_scalar_calls(self, m, r):
        params = PhysicalParams(H=1.0, m=m)
        for mode in self._modes(m):
            got = ita_remainder(mode, params, r, self.TIMES)
            assert got.shape == self.TIMES.shape
            for g, t in zip(got, self.TIMES):
                want = ita_remainder(mode, params, r, float(t))
                assert abs(g - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_assemble_equals_scalar_calls(self, m):
        # the lead and the convolutions cancel at late times (at m = 2,
        # t = 14 the field is ~1/500 of either), so the scalar and array
        # results are compared on the scale of the terms they sum
        params = PhysicalParams(H=1.0, m=m)
        for mode in self._modes(m):
            w0 = lambda r, s: wave_block(mode.f0, 1, r, s)
            w1 = None if mode.f1 is None else (lambda r, s: wave_block(mode.f1, 1, r, s))
            got = ita_assemble(w0, params, 0.7, self.TIMES, w1)
            assert got.shape == self.TIMES.shape
            for g, t in zip(got, self.TIMES):
                want = ita_assemble(w0, params, 0.7, float(t), w1)
                scale = abs(want) + abs(ita_remainder(mode, params, 0.7, float(t)))
                assert abs(g - want) <= 1e-14 * scale

    def test_groups_of_times(self, monkeypatch):
        # times beyond one group go through in several passes, unchanged
        mode, params = pionic_mode(2, 1, energy=2.0), PhysicalParams(H=1.0, m=2.0)
        whole = ita_remainder(mode, params, 0.7, self.TIMES)
        monkeypatch.setattr(desitter, "_TIME_GROUP", 2)
        grouped = ita_remainder(mode, params, 0.7, self.TIMES)
        assert (np.abs(grouped - whole) <= 1e-14 * np.abs(whole)).all()

    def test_late_miss_carries_every_time(self):
        # the monopole block has no inner integral: the convolutions of the
        # times are the integrals that miss, and the exception carries the
        # estimates of all of them
        mode = ModeState(ell=0, m=0, f0=gaussian_profile(0))
        params = PhysicalParams(H=1.0, m=1.0)
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-16)
        times = np.array([14.0, 20.0, 0.0])
        with pytest.raises(ToleranceNotMet) as miss:
            ita_remainder(mode, params, 0.7, times, spec)
        value, err = miss.value.value, miss.value.err_est
        assert value.shape == err.shape == times.shape
        assert value[2] == 0.0 and err[2] == 0.0
        want = ita_remainder(mode, params, 0.7, times)
        assert (np.abs(value - want) <= 1e-6 * np.abs(want)).all()
        assert (err[:2] > 0.0).all() and np.isfinite(err).all()
        with pytest.raises(ToleranceNotMet) as one:
            ita_remainder(mode, params, 0.7, 14.0, spec)
        assert np.ndim(one.value.value) == 0
        assert abs(one.value.value - value[0]) <= 1e-14 * abs(value[0])


class TestLateTimes:
    """A late time (e^{-H t} < 0.05) is one integral in xi, H s = 1 - xi
    e^{-H t}, over its whole convolution; an early one is one in s."""

    # the pionic atom with its velocity, and a Gaussian without
    MODES = {
        "pionic": lambda m: pionic_mode(2, 1, energy=m),
        "gauss": lambda m: ModeState(ell=1, m=0, f0=gaussian_profile(1)),
    }

    @pytest.mark.parametrize("name", list(MODES))
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_values_continue_across_the_seam(self, m, name):
        # just before and just after e^{-H t} = 0.05 the two forms of the
        # convolution give the same field
        early, late = math.log(20.0) * (1.0 - 1e-12), math.log(20.0) * (1.0 + 1e-12)
        assert math.exp(-early) >= 0.05 > math.exp(-late)
        mode, params = self.MODES[name](m), PhysicalParams(H=1.0, m=m)
        for fn in (field_riemann, field_hankel, ita_remainder):
            a, b = fn(mode, params, 0.7, early), fn(mode, params, 0.7, late)
            assert abs(a - b) <= 1e-8 * abs(a), fn.__name__

    @pytest.mark.parametrize("r", [0.5, 1.2])
    @pytest.mark.parametrize("m", [0.5, 2.0])
    def test_late_remainder_meets_the_spec(self, m, r):
        # a late time is held to the spec's own tolerances: the default
        # value is within rel_tol of one under far tighter ones
        mode, params = pionic_mode(2, 1, energy=m), PhysicalParams(H=1.0, m=m)
        times = np.array([5.0, 14.0, 34.0])
        want = ita_remainder(mode, params, r, times, QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12))
        got = ita_remainder(mode, params, r, times)
        assert (np.abs(got - want) <= 1e-8 * np.abs(want)).all()

    def test_cancelling_panels_meet_the_spec(self):
        # here the geometric panels of the xi integral cancel to a third of
        # the first one: held to the spec each, their summed estimates would
        # miss the time's own tolerance (2.8e-9 against 2.1e-9); held to it
        # as one integral, they do not
        mode, params = ModeState(ell=0, m=0, f0=gaussian_profile(0)), PhysicalParams(H=1.0, m=5.0)
        tighter = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=1000)
        want = ita_remainder(mode, params, 0.7, 3.5, tighter)
        assert abs(ita_remainder(mode, params, 0.7, 3.5) - want) <= 1e-8 * abs(want)


class TestVelocityOnTheDataBlocks:
    """A velocity f1 = c f0 rides on the blocks of f0, c folded into the
    kernel weight (and the Huygens bracket); the same f1 built as a profile
    of its own takes blocks of its own."""

    _g = gaussian_profile(1)
    MODES = {
        "pionic E=0.5": pionic_mode(2, 1, energy=0.5),
        "pionic E=2": pionic_mode(2, 1, energy=2.0),
        "gauss": ModeState(1, 0, _g, scaled_profile(_g, -0.4j)),
    }
    TIMES = np.linspace(14.0, 34.0, 7)

    @staticmethod
    def _own_blocks(mode):
        f1 = mode.f1
        own = RadialProfile(func=f1.func, mu=f1.mu, parity_ell=f1.parity_ell, hankel=f1.hankel)
        return ModeState(mode.ell, mode.m, mode.f0, own)

    @pytest.mark.parametrize("name", list(MODES))
    def test_one_block_batch_equals_two(self, name):
        mode = self.MODES[name]
        other = self._own_blocks(mode)
        assert desitter._velocity(other, QuadratureSpec(), False, 0)[1] is not None
        heavy, huygens = PhysicalParams(H=1.0, m=2.0), PhysicalParams(H=1.0, m=SQRT2)
        calls = [
            (field_riemann, heavy, 1.2, 1.0, 1e-12),
            (field_riemann, heavy, 0.7, 20.0, 1e-12),
            (field_hankel, heavy, 1.2, 1.0, 1e-12),
            (field_riemann_huygens, huygens, 0.9, 1.5, 1e-12),
            # a velocity block of its own is refined on its own scale: the
            # spectral values differ at their quadrature error (7e-12 here;
            # either is ~2e-11 from the quadrature arm)
            (field_hankel_huygens, huygens, 0.9, 1.5, 1e-11),
        ]
        for fn, params, r, t, rel in calls:
            want = fn(other, params, r, t)
            assert abs(fn(mode, params, r, t) - want) <= rel * abs(want), fn.__name__
        for m in (0.5, 2.0):
            params = PhysicalParams(H=1.0, m=m)
            want = ita_remainder(other, params, 0.7, self.TIMES)
            got = ita_remainder(mode, params, 0.7, self.TIMES)
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()

    def test_velocity_coefficients(self):
        f0 = self._g
        twice = scaled_profile(scaled_profile(f0, 2.0), -0.4j)
        for f1, c in ((None, 0.0), (f0, 1.0), (twice, -0.8j)):
            for kind in (0, 1):
                got = desitter._velocity(ModeState(1, 0, f0, f1), QuadratureSpec(), True, kind)
                assert got == (c, None)
        # f1 = f0 is the c = 1 path, and equals a velocity block of its own
        params = PhysicalParams(H=1.0, m=2.0)
        same = ModeState(1, 0, f0, f0)
        want = ita_remainder(self._own_blocks(same), params, 0.7, self.TIMES)
        got = ita_remainder(same, params, 0.7, self.TIMES)
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()

    def test_velocity_adds_no_block_batch(self, monkeypatch):
        # the gain: a pionic remainder with its velocity evaluates as many
        # wave-block batches as without it
        calls = []
        block = minkowski.wave_block

        def counted(*args, **kwargs):
            calls.append(1)
            return block(*args, **kwargs)

        monkeypatch.setattr(minkowski, "wave_block", counted)
        params = PhysicalParams(H=1.0, m=2.0)
        counts = []
        for energy in (None, 2.0):
            calls.clear()
            ita_remainder(pionic_mode(2, 1, energy=energy), params, 0.7, self.TIMES)
            counts.append(len(calls))
        assert counts[0] > 0 and counts[1] == counts[0]


class TestDecayClassify:
    @pytest.mark.parametrize(
        "m,regime,expo,poly",
        [
            (0.5, "light", -1.5 + math.sqrt(2.0), 0.0),
            (1.2, "light", -1.5 + math.sqrt(2.25 - 1.44), 0.0),
            (SQRT2, "critical", -1.0, 0.0),
            (1.45, "intermediate", -1.0, 0.0),
            (1.5, "heavy", -1.0, 1.0),  # M = 0 exactly: polynomial correction
            (2.0, "heavy", -1.0, 0.0),
        ],
    )
    def test_regimes_h1(self, m, regime, expo, poly):
        rep = decay_classify(PhysicalParams(H=1.0, m=m))
        assert rep.regime == regime
        assert rep.predicted_exponent == pytest.approx(expo, rel=1e-12)
        assert rep.predicted_poly_power == poly

    def test_scaling_in_h(self):
        rep = decay_classify(PhysicalParams(H=2.0, m=2.0 * SQRT2))
        assert rep.regime == "critical"
        assert rep.predicted_exponent == -2.0

    def test_rejects_flat_space(self):
        with pytest.raises(InvalidParam):
            decay_classify(PhysicalParams(H=0.0, m=1.0))


class TestDecayFit:
    def test_synthetic_exponential_recovered_exactly(self):
        rep = decay_fit(lambda t: 3.0 * np.exp(-0.77 * t), (2.0, 12.0), 9)
        assert rep.regime == "synthetic"
        assert rep.fitted_exponent == pytest.approx(-0.77, abs=1e-12)
        assert rep.fit_residual < 1e-12
        assert math.isnan(rep.fitted_poly_power)

    def test_synthetic_poly_factor_recovered(self):
        rep = decay_fit(
            lambda t: (1.0 + t) ** 2 * np.exp(-0.5 * t),
            (2.0, 12.0),
            12,
            fit_poly_power=True,
        )
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=1e-9)
        assert rep.fitted_poly_power == pytest.approx(2.0, abs=1e-8)

    def test_prediction_attached_when_params_given(self):
        rep = decay_fit(
            lambda t: np.exp(-t),
            (2.0, 10.0),
            8,
            params=PhysicalParams(H=1.0, m=SQRT2),
        )
        assert rep.regime == "critical"
        assert rep.predicted_exponent == -1.0
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-12)

    def test_sampler_called_once_with_every_time(self):
        calls = []

        def sampler(t):
            calls.append(t)
            return np.exp(-t)

        decay_fit(sampler, (2.0, 10.0), 8)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.linspace(2.0, 10.0, 8))

    def test_underflow_raises_degenerate_fit(self):
        with pytest.raises(DegenerateFit):
            decay_fit(lambda t: np.zeros_like(t), (1.0, 5.0), 6)

    def test_sampler_must_return_one_value_per_time(self):
        with pytest.raises(InvalidParam):
            decay_fit(lambda t: 1.0, (1.0, 5.0), 6)

    def test_discard_fraction_trims_dips(self):
        def dipped(t):
            base = np.exp(-t)
            return base * np.where(np.abs(t - 5.0) < 0.4, 1e-6, 1.0)

        clean = decay_fit(dipped, (2.0, 10.0), 17, discard_fraction=0.2)
        assert clean.fitted_exponent == pytest.approx(-1.0, abs=1e-6)

    def test_window_validation(self):
        with pytest.raises(InvalidParam):
            decay_fit(lambda t: np.exp(-t), (5.0, 2.0), 8)
        with pytest.raises(InvalidParam):
            decay_fit(lambda t: np.exp(-t), (1.0, 5.0), 3)


class TestRemainderEnvelope:
    def test_heavy_envelope_has_no_residual_oscillation(self):
        # |remainder| e^{H t} settles to a constant; the oscillatory bulk
        # mode below it dies like e^{-t/2} and is invisible by t = 15
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        params = PhysicalParams(H=1.0, m=2.0)
        lift = [
            abs(ita_remainder(mode, params, 0.7, t)) * math.exp(t)
            for t in (15.0, 18.5, 22.0)
        ]
        for v in lift[1:]:
            assert v == pytest.approx(lift[0], rel=1e-2)
