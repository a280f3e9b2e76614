"""Regenerate the frozen reference constants used by the test suite, and
the gamma-function constants of src/dswave/specfun.py.

Every [DERIVED] constant asserted in tests/ is produced here from mpmath at
40 significant digits, via formulas or quadratures independent of the
package code paths (mpmath's own hyp2f1/besselj, closed forms
where they exist, tanh-sinh quadrature elsewhere).  Run

    python3 tools/gen_oracle_values.py

and paste the printed blocks into the modules their headers name.  mpmath
is a dev-only dependency; the package and its tests never import it.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 40

ALPHA = mp.mpf(1) / 137


def cfmt(v, digits: int = 18) -> str:
    v = mp.mpc(v)
    return f"complex({mp.nstr(v.real, digits)}, {mp.nstr(v.imag, digits)})"


def ffmt(v, digits: int = 18) -> str:
    return mp.nstr(mp.mpf(v), digits)


def header(title: str) -> None:
    print()
    print(f"# --- {title} ---")


# ---------------------------------------------------------------------------
# Gauss hypergeometric


def gen_hyp2f1() -> None:
    header("hyp2f1 (tests/test_specfun.py)")
    nu = mp.sqrt(mp.mpf(7)) / 2  # |M| for H=1, m=2, n=3
    a_im = mp.mpc(mp.mpf(1) / 2, -nu)
    cases = [
        ("series_complex", a_im, a_im, 1, mp.mpf("0.3")),
        ("pfaff_complex", a_im, a_im, 1, mp.mpf("-2.5")),
        ("transform_complex", a_im, a_im, 1, mp.mpf("0.97")),
        ("log_m0", mp.mpf("0.3"), mp.mpf("0.7"), 1, mp.mpf("0.98")),
        ("log_m1", mp.mpf("0.25"), mp.mpf("0.75"), 2, mp.mpf("0.98")),
        ("log_m2", mp.mpf("0.25"), mp.mpf("0.75"), 3, mp.mpf("0.985")),
        ("euler_neg", mp.mpf("1.3"), mp.mpf("1.2"), mp.mpf("1.5"), mp.mpf("0.97")),
        ("generic_near1", mp.mpf("0.3"), mp.mpf("1.1"), mp.mpf("2.17"), mp.mpf("0.99")),
        # a = c: F = (1-z)^-b.  The Euler reflection lands on the log case
        # with a pole of Gamma in its lead, which must zero the log part
        ("gamma_pole_lead", 2, mp.mpf("0.3"), mp.mpf("0.3"), mp.mpf("0.97")),
    ]
    print("HYP2F1_CASES = {")
    for name, a, b, c, z in cases:
        v = mp.hyp2f1(a, b, c, z)
        print(f'    "{name}": {cfmt(v)},')
    print("}")
    # complement-resolved argument: z rounds to 1.0 in binary64, the exact
    # complement 4e^{-Ht}/D is still well above underflow
    one_minus = mp.mpf("2.4e-16")
    v = mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, 1 - one_minus)
    print(f"HYP2F1_COMPLEMENT = {cfmt(v)}  # a=b=1/2, c=1, 1-z=2.4e-16")


# ---------------------------------------------------------------------------
# Gamma and digamma: the native constants and their references


def lanczos_coeffs(r, n: int):
    """Lanczos' (1964) coefficients a_k(r), k <= n, from the Chebyshev
    moments of F_r(j) = Gamma(j+1/2) (j+r+1/2)^-(j+1/2) e^(j+r+1/2) / sqrt(2),
    summed in partial fractions d_0 + sum_k d_k/(z+k) and scaled to
    Gamma(z+1) = 2 sqrt(e/pi) ((z+r+1/2)/e)^(z+1/2) [d_0 + sum_k d_k/(z+k)],
    the form of G. R. Pugh's thesis (UBC, 2004)."""
    half = mp.mpf(1) / 2

    def f(j):
        return mp.gamma(j + half) * (j + r + half) ** (-(j + half)) * mp.e ** (j + r + half) / mp.sqrt(2)

    a = []
    for k in range(n + 1):
        cheb = mp.taylor(lambda x: mp.chebyt(2 * k, x), 0, 2 * k)
        a.append(2 / mp.pi * sum(cheb[2 * j] * f(j) for j in range(k + 1)))
    d = [a[0] / 2 + sum(a[1:])] + [mp.mpf(0)] * n
    for k in range(1, n + 1):
        # z(z-1)...(z-k+1) / ((z+1)...(z+k)) = 1 + sum_j residue_j / (z+j)
        for j in range(1, k + 1):
            num = mp.fprod([-j - i for i in range(k)])
            den = mp.fprod([i - j for i in range(1, k + 1) if i != j])
            d[j] += a[k] * num / den
    scale = mp.pi * mp.e ** (-r) / mp.sqrt(2 * mp.e)
    return [v * scale for v in d]


def _polymul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _rising(n: int, skip: int = 0):
    # ascending coefficients of prod_{k=1..n, k != skip} (x + k)
    poly = [mp.mpf(1)]
    for k in range(1, n + 1):
        if k != skip:
            poly = _polymul(poly, [mp.mpf(k), mp.mpf(1)])
    return poly


def gen_gamma_constants() -> None:
    header("Gamma constants (src/dswave/specfun.py)")
    # Pugh's choice for binary64: n = 10, r = 10.900511.  Over the common
    # denominator prod_k (x+k) every numerator coefficient is positive, so
    # the rational form does not cancel on Re x >= 0
    n, r = 10, mp.mpf("10.900511")
    d = lanczos_coeffs(r, n)
    num = [d[0] * v for v in _rising(n)]
    for k in range(1, n + 1):
        for i, v in enumerate(_rising(n, skip=k)):
            num[i] += d[k] * v
    print("_LANCZOS_NUM = (")
    for v in num:
        print(f"    {float(v)!r},")
    print(")")
    print("_LANCZOS_DEN = (")
    for v in _rising(n):
        print(f"    {float(v)!r},")
    print(")")


def _kernel_line(m):
    # 1/2 - M/H and 3/2 - M/H at H = 1, n = 3, as binary64 arguments
    mh = mp.sqrt(mp.mpc(mp.mpf(9) / 4 - mp.mpf(m) ** 2))
    return [complex(mp.mpf(1) / 2 - mh), complex(mp.mpf(3) / 2 - mh)]


def gen_gamma() -> None:
    header("Gamma and digamma (tests/test_specfun.py)")
    args = [
        # right half-plane, the real axis and large |Im z|
        1.0, 0.5, 7.25, 2.5 + 1.5j, 7.5 - 3.75j, 0.75 + 25.0j, 3.25 - 40.0j,
        # the reflection half-plane
        0.25 - 0.5j, -3.7 + 0.4j, -5.5 + 2.1j, -0.3 - 1.2j, -2.5,
        *_kernel_line(0.5), *_kernel_line(2.0),
    ]
    print("GAMMA_CASES = {")
    for z in args:
        print(f"    {complex(z)!r}: {cfmt(mp.gamma(mp.mpc(z)))},")
    print("}")
    # t^(x+1/2) alone overflows here, Gamma does not
    print(f"GAMMA_171_5 = {ffmt(mp.gamma(mp.mpf('171.5')))}")
    a = _kernel_line(2.0)[0]
    args = [1.0, 2.0, 7.0, 151.0, 2000.0] + [a + k for k in (0, 1, 5, 40)] + [-1.7, -0.7, -2.4 + 0.3j]
    print("DIGAMMA_CASES = {")
    for z in args:
        print(f"    {complex(z)!r}: {cfmt(mp.digamma(mp.mpc(z)))},")
    print("}")


# ---------------------------------------------------------------------------
# Kernels from the printed hypergeometric formula


def mp_kernels(r, t, H, m, n=3):
    H, m, r, t = mp.mpf(H), mp.mpf(m), mp.mpf(r), mp.mpf(t)
    M = mp.sqrt(mp.mpc(n * n * H * H / 4 - m * m))
    q = mp.e ** (-H * t)
    d = (1 + q) ** 2 - (H * r) ** 2
    z = ((1 - q) ** 2 - (H * r) ** 2) / d
    mh = M / H
    f1 = mp.hyp2f1(mp.mpf(1) / 2 - mh, mp.mpf(1) / 2 - mh, 1, z)
    f2 = mp.hyp2f1(mp.mpf(3) / 2 - mh, mp.mpf(3) / 2 - mh, 2, z)
    pref = mp.mpf(4) ** (-mh) * mp.e ** (M * t)
    k1 = pref * d ** (mh - mp.mpf(1) / 2) * f1
    br = (1 / q) * d * (-(H * r) ** 2 * M + M * q * q + H * q + H - M) * f1 + (
        (H - 2 * M) ** 2 * (-(H * r) ** 2 + q * q - 1) / H
    ) * f2
    k0 = -pref * q * d ** (mh - mp.mpf(5) / 2) * br
    return k0, k1


def gen_kernels() -> None:
    header("kernels (tests/test_kernels.py)")
    pts = [
        ("real_M", 0.4, 1.0, 1.0, 1.0),
        ("imag_M", 0.5, 1.2, 1.0, 2.0),
        ("H2_light", 0.2, 0.8, 2.0, 0.3),
    ]
    print("KERNEL_POINTS = {")
    for name, r, t, H, m in pts:
        k0, k1 = mp_kernels(r, t, H, m)
        print(f'    "{name}": dict(r={r}, t={t}, H={H}, m={m},')
        print(f"                   k0={cfmt(k0)},")
        print(f"                   k1={cfmt(k1)}),")
    print("}")
    # endpoint parametrization: H r = 1 - xi e^{-H t}; binary64 cannot even
    # form r at t=45, mpmath can
    print("KERNEL_ENDPOINT_POINTS = {")
    for name, xi, t, H, m in [
        ("deep_imag", 3.7, 30.0, 1.0, 2.0),
        ("wall_real", 2.0, 45.0, 1.0, 1.0),
    ]:
        q = mp.e ** (-mp.mpf(H) * t)
        r = (1 - xi * q) / H
        k0, k1 = mp_kernels(r, t, H, m)
        print(f'    "{name}": dict(xi={xi}, t={t}, H={H}, m={m},')
        print(f"                   k0={cfmt(k0)},")
        print(f"                   k1={cfmt(k1)}),")
    print("}")
    # the collapsing mass as binary64 rounds it, H = 1: there H - 2M is
    # 5.5e-16 and the K0 bracket cancels to O(q + H - 2M), so 60 digits
    print("KERNEL_COLLAPSE_POINTS = {  # (xi, t): (k0, k1)")
    with mp.workdps(60):
        for t in (20, 40):
            for xi in (8, 64, 1024):
                q = mp.e ** (-mp.mpf(t))
                k0, k1 = mp_kernels(1 - xi * q, t, 1, math.sqrt(2.0))
                print(f"    ({xi}, {t}): ({cfmt(k0)}, {cfmt(k1)}),")
    print("}")


# ---------------------------------------------------------------------------
# Bessel, Laguerre, harmonics


def gen_scalars() -> None:
    header("scalar special functions (tests/test_specfun.py)")
    print("BESSEL_HALF_CASES = {")
    for ell, z in [(0, 0.6), (2, 1e-7), (3, 0.37), (5, 2.6), (7, 25.0)]:
        v = mp.besselj(mp.mpf(ell) + mp.mpf(1) / 2, mp.mpf(z))
        print(f"    ({ell}, {z}): {ffmt(v)},")
    print("}")
    mu2 = mp.sqrt(mp.mpf(9) / 4 - (2 * ALPHA) ** 2)
    lag = mp.laguerre(1, 2 * mu2, mp.mpf("0.8"))
    print(f"LAGUERRE_1_2MU_08 = {ffmt(lag)}  # alpha=2*mu(ell=1,Z=2)")
    y32 = mp.spherharm(3, 2, mp.mpf("0.7"), mp.mpf("1.1"))
    print(f"Y_3_2_07_11 = {cfmt(y32)}")
    y3m2 = mp.spherharm(3, -2, mp.mpf("0.7"), mp.mpf("1.1"))
    print(f"Y_3_M2_07_11 = {cfmt(y3m2)}")
    # degrees whose factorials leave binary64
    print("Y_HIGH_ELL_07_11 = {")
    for ell in (170, 171, 200, 1000):
        for m in (0, 2):
            v = mp.spherharm(ell, m, mp.mpf("0.7"), mp.mpf("1.1"))
            print(f"    ({ell}, {m}): {cfmt(v)},")
    print("}")
    # orders whose sectoral start (2m-1)!! sin^m leaves binary64, at the
    # binary64 angles
    print("Y_LARGE_M = {  # theta = 0.7, phi = 1.1")
    for ell, m in ((5, 3), (200, 150), (200, 200), (1000, 500), (1000, 1000)):
        print(f"    ({ell}, {m}): {cfmt(mp.spherharm(ell, m, mp.mpf(0.7), mp.mpf(1.1)))},")
    print("}")


# ---------------------------------------------------------------------------
# Bound-state profiles


def pionic_f0(n_q: int, ell: int, Z: int):
    mu = mp.sqrt((mp.mpf(ell) + mp.mpf(1) / 2) ** 2 - (Z * ALPHA) ** 2)
    k = n_q - ell - 1

    def f(r):
        r = mp.mpf(r)
        return r ** (mu - mp.mpf(1) / 2) * mp.e ** (-r / 2) * mp.laguerre(k, 2 * mu, r)

    return f, mu, k


def gen_pionic() -> None:
    header("pionic profiles (tests/test_desitter.py)")
    for Z in (1, 2):
        mu = mp.sqrt(mp.mpf(1) / 4 - (Z * ALPHA) ** 2)
        print(f"MU_MINUS_HALF_Z{Z} = {ffmt(mu - mp.mpf(1)/2, 12)}")
    f0, mu, k = pionic_f0(3, 1, 2)
    print(f"PIONIC_F0_312_08 = {ffmt(f0('0.8'))}  # n=3, ell=1, Z=2, C=1, r=0.8")
    # L2(r^2 dr) norm of the n=2, ell=1, Z=1 profile, C=1
    f0, mu, k = pionic_f0(2, 1, 1)
    nrm = mp.sqrt(mp.quad(lambda r: (f0(r) * r) ** 2, [0, 10, 40, mp.inf]))
    print(f"PIONIC_L2_NORM_21 = {ffmt(nrm)}  # ||r F0||_2, n=2, ell=1, Z=1")
    # spectral transform of the same profile at two frequencies
    print("PIONIC_HAT_21 = {")
    for lam in ("0.7", "2.3"):
        lam_ = mp.mpf(lam)
        v = mp.quad(
            lambda rho: f0(rho) * mp.besselj(mp.mpf(3) / 2, rho * lam_) * rho ** mp.mpf("1.5"),
            [0, 5, 20, 60, mp.inf],
            maxdegree=10,
        )
        print(f"    {lam}: {ffmt(v)},")
    print("}")


# ---------------------------------------------------------------------------
# Gaussian transforms


def gaussian_hat(ell: int, k: int, sigma, lam):
    """int_0^inf rho^{ell+2k} e^{-sigma rho^2} J_{ell+1/2}(lam rho) rho^{3/2} drho
    in closed form (DLMF 10.22.51)."""
    nu = mp.mpf(ell) + mp.mpf(1) / 2
    x = lam**2 / (4 * sigma)
    return (mp.factorial(k) * lam**nu * mp.e ** (-x) * mp.laguerre(k, nu, x)
            / (2 ** (nu + 1) * sigma ** (nu + k + 1)))


def gen_gaussian_hat() -> None:
    header("Gaussian transforms (tests/test_minkowski.py)")
    sigma = mp.mpf(2)
    print("GAUSS_HAT_S2 = {  # (ell, k, lam): power ell + 2k, sigma = 2")
    for ell, k in [(0, 1), (1, 1), (3, 2), (2, 10), (170, 0)]:
        for lam in ("0.5", "2.3", "60"):
            lam_ = mp.mpf(lam)
            v = gaussian_hat(ell, k, sigma, lam_)
            if lam != "60" and ell < 170:
                # the closed form against the defining integral, where the
                # integral does not cancel to many orders below its integrand
                q = mp.quad(
                    lambda rho: rho ** (ell + 2 * k + mp.mpf("1.5")) * mp.e ** (-sigma * rho**2)
                    * mp.besselj(ell + mp.mpf(1) / 2, lam_ * rho),
                    [0, 1, 2, 4, 8, mp.inf],
                )
                assert abs(q - v) <= mp.mpf(10) ** -30 * abs(v), (ell, k, lam)
            print(f"    ({ell}, {k}, {lam}): {ffmt(v)},")
    print("}")


# ---------------------------------------------------------------------------
# Wave blocks


def gauss_block_l1(r, t):
    # closed form: F0 = s e^{-s^2}, ell = 1; the tail weight polynomial is 1
    r, t = mp.mpf(r), mp.mpf(t)
    a, b = r - t, r + t
    lead = (a**2 * mp.e ** (-(a**2)) + b**2 * mp.e ** (-(b**2))) / (2 * r)
    moment = (mp.e ** (-(a**2)) - mp.e ** (-(b**2))) / 2
    return lead - t / (2 * r**2) * moment


def gen_blocks() -> None:
    header("wave blocks (tests/test_minkowski.py)")
    print("GAUSS_BLOCK_L1 = {")
    for r, t in [(0.7, 0.3), (0.7, 1.9)]:
        print(f"    ({r}, {t}): {ffmt(gauss_block_l1(r, t))},")
    print("}")
    # ell = 3 gaussian: F0(s) = s^3 e^{-s^2} (odd), tail weight
    # F(-2, 5; 2; y) = 1 - 5 y + 5 y^2
    r, t = mp.mpf("0.8"), mp.mpf("1.1")
    f0 = lambda s: s**3 * mp.e ** (-(s**2))
    lead = ((r - t) ** 4 * mp.e ** (-((r - t) ** 2))
            + (r + t) ** 4 * mp.e ** (-((r + t) ** 2))) / (2 * r)

    def integrand(s):
        y = (t - r + s) * (t + r - s) / (4 * r * s)
        return f0(s) * (1 - 5 * y + 5 * y**2)

    tail = mp.quad(integrand, [abs(r - t), r + t])
    v = lead - 3 * (3 + 1) / mp.mpf(4) * t / r**2 * tail
    print(f"GAUSS_BLOCK_L3_08_11 = {ffmt(v)}")
    # pionic (2,1) block at (0.9, 0.6); r > t so no parity extension needed
    f0p, mu, _ = pionic_f0(2, 1, 1)
    r, t = mp.mpf("0.9"), mp.mpf("0.6")
    lead = ((r - t) * f0p(r - t) + (r + t) * f0p(r + t)) / (2 * r)
    moment = mp.quad(f0p, [r - t, r + t])
    v = lead - t / (2 * r**2) * moment
    print(f"PIONIC_BLOCK_21_09_06 = {ffmt(v)}")


# ---------------------------------------------------------------------------
# Sine integral


def gen_sine_integral() -> None:
    header("sine integral (tests/test_quadrature.py)")
    print(f"SI_PI = {ffmt(mp.si(mp.mpf(math.pi)))}  # Si(pi) at the binary64 pi")


# ---------------------------------------------------------------------------
# Kernel convolution integrals (closed-form ell=1 gaussian block)


def gen_ita() -> None:
    header("assembly convolution (tests/test_desitter.py)")
    H, m = 1, 2
    r0 = mp.mpf("0.7")
    for t in (mp.mpf("1.2"), mp.mpf(20)):
        q = mp.e ** (-H * t)
        pt = (1 - q) / H

        def f(s):
            k0, k1 = mp_kernels(s, t, H, m)
            return (2 * k0 + 3 * H * k1) * gauss_block_l1(r0, s)

        pts = [mp.mpf(0), mp.mpf("0.35"), r0]
        u = (pt - r0) / 2
        while u > mp.mpf("1.5") * q:
            pts.append(pt - u)
            u /= 4
        pts.append(pt)
        v = mp.quad(f, pts, maxdegree=8)
        print(f"ITA_CONV_M2_T{mp.nstr(t, 3)} = {cfmt(v)}  # r=0.7, gaussian ell=1")


# ---------------------------------------------------------------------------
# Collapsing-mass bound state at r = 1/H


def gen_huygens_pionic() -> None:
    header("collapsing-mass closed form at r=1/H (tests/test_desitter.py)")
    H = mp.mpf(1)
    mu = mp.sqrt(mp.mpf(1) / 4 - ALPHA**2)

    def bracket(s):
        q = mp.e ** (-H * s)
        return (
            mp.e ** (-H * (mu + mp.mpf(1) / 2) * s - q / (2 * H))
            + (2 - q) ** (mu + mp.mpf(1) / 2) * mp.e ** (-(2 - q) / (2 * H))
        )

    pref = H ** (mp.mpf(1) / 2 - mu) / (4 * mp.sqrt(mp.pi))
    print("HUYGENS_PIONIC_R1H = {")
    for t in (mp.mpf("0.5"), mp.mpf("1.5")):
        integ = mp.quad(lambda s: bracket(s) * mp.e ** (-H * s), [0, t])
        v = mp.e ** (-H * t) * pref * (bracket(t) + H * integ)
        print(f"    {mp.nstr(t, 3)}: {ffmt(v)},")
    print("}")


def main() -> None:
    print("# generated by tools/gen_oracle_values.py (mpmath, dps=40)")
    gen_hyp2f1()
    gen_gamma_constants()
    gen_gamma()
    gen_kernels()
    gen_scalars()
    gen_pionic()
    gen_gaussian_hat()
    gen_blocks()
    gen_sine_integral()
    gen_ita()
    gen_huygens_pionic()


if __name__ == "__main__":
    main()
