"""Tests of the benchmark's closed forms against quadrature of their
defining integrals (scipy.integrate / mpmath).

Run with:  python3 -m pytest -q perfbench/check_references.py
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_laguerre

import references as R


def _hermite_fn(n, x):
    """Orthonormal Hermite function h_n(x) by mpmath (no recurrence shared with the program)."""
    return float(mpmath.hermite(n, x) * mpmath.exp(-x * x / 2)
                 / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)))


def _quad_complex(f, lo, hi, **kw):
    re = quad(lambda v: f(v).real, lo, hi, limit=400, **kw)[0]
    im = quad(lambda v: f(v).imag, lo, hi, limit=400, **kw)[0]
    return re + 1j * im


def _w_diag(n, lam, r2):
    """W(n, n, lam, Y) = e^{-|lam| r^2} L_n(2 |lam| r^2) (checked below via the Laguerre form)."""
    return math.exp(-abs(lam) * r2) * eval_laguerre(n, 2.0 * abs(lam) * r2)


@pytest.mark.parametrize("n,m,lam,y,eta", [
    (0, 0, 0.7, 0.3, -0.8),
    (3, 1, -1.3, 0.9, 0.4),
    (2, 5, 0.45, -1.1, 0.6),
    (10, 7, 2.2, 0.2, -0.3),
])
def test_wigner_laguerre_vs_defining_integral(n, m, lam, y, eta):
    root = math.sqrt(abs(lam))
    a = root * y
    b = 2.0 * math.copysign(root, lam) * eta
    # I(n, m, a, b) = int e^{i b v} h_n(a + v) h_m(v - a) dv
    want = _quad_complex(lambda v: np.exp(1j * b * v) * _hermite_fn(n, a + v) * _hermite_fn(m, v - a),
                         -12.0, 12.0, epsabs=1e-14)
    assert abs(R.wigner_laguerre(n, m, lam, y, eta) - want) < 1e-11
    if n == m:
        assert abs(_w_diag(n, lam, y * y + eta * eta) - want) < 1e-11


@pytest.mark.parametrize("xdot,k,y,eta", [(0.5, 0, 0.7, -0.2), (-2.0, 3, -0.4, 1.1), (1.3, -2, 1.5, 0.3)])
def test_boundary_kernel_vs_angular_integral(xdot, k, y, eta):
    amp = 2.0 * math.sqrt(abs(xdot))
    sgn = math.copysign(1.0, xdot)
    want = _quad_complex(
        lambda z: np.exp(1j * (amp * (y * math.sin(z) + eta * sgn * math.cos(z)) + k * z)) / (2 * math.pi),
        -math.pi, math.pi, epsabs=1e-14)
    assert abs(R.boundary_kernel_bessel(xdot, k, y, eta) - want) < 1e-12


@pytest.mark.parametrize("a,b,n,lam", [(0.5, 1.0, 0, 0.2), (0.45, 1.1, 3, -1.3), (0.55, 0.9, 7, 0.6)])
def test_gauss_hat_vs_defining_integral(a, b, n, lam):
    # int e^{-i s lam} e^{-b s^2} ds  *  2 pi int_0^inf r e^{-a r^2} W(n, n, lam, r) dr
    vertical = quad(lambda s: math.cos(s * lam) * math.exp(-b * s * s), -np.inf, np.inf)[0]
    radial = quad(lambda r: r * math.exp(-a * r * r) * _w_diag(n, lam, r * r), 0, np.inf, limit=400)[0]
    want = vertical * 2.0 * math.pi * radial
    assert R.gauss_hat_diagonal(a, b, n, lam) == pytest.approx(want, rel=1e-9, abs=1e-13)


def _cosine_quad(profile, s):
    return 2.0 / math.pi**2 * quad(lambda l: math.cos(s * l) * profile(l), 0, np.inf, limit=400)[0]


def _laguerre_series(weights, x):
    """sum_n weights[n] L_n(x) by the three-term recurrence."""
    prev, cur = 0.0, 1.0
    total = weights[0]
    for n in range(1, len(weights)):
        prev, cur = cur, ((2 * n - 1 - x) * cur - (n - 1) * prev) / n
        total += weights[n] * cur
    return total


@pytest.mark.parametrize("lam", [0.02, 0.3, 1.7, 5.0])
@pytest.mark.parametrize("r2", [0.0, 1.3, 4.0])
def test_heat_gauss_integrand_is_the_series(lam, r2):
    a, b, t = 0.5, 1.0, 0.1
    ns = np.arange(3000)
    weights = R.gauss_hat_diagonal(a, b, ns, lam) * np.exp(-4.0 * t * lam * (2 * ns + 1))
    series = lam * math.exp(-lam * r2) * _laguerre_series(weights, 2.0 * lam * r2)
    assert R.heat_gauss_integrand(a, b, t, lam, r2) == pytest.approx(series, rel=1e-10, abs=1e-15)
    # at t = 0 the series collapses to the Gaussian's own transform
    assert R.heat_gauss_integrand(a, b, 0.0, lam, r2) == pytest.approx(
        0.5 * math.pi**1.5 / math.sqrt(b) * math.exp(-lam**2 / (4 * b) - a * r2), rel=1e-12)


@pytest.mark.parametrize("r2,s", [(0.0, 0.0), (1.3, 0.7), (4.0, -2.5)])
def test_heat_evolved_gauss_vs_quadrature(r2, s):
    a, b, t = 0.5, 1.0, 0.1
    got = R.heat_evolved_gauss(a, b, t, np.array([r2]), np.array([s]))[0]
    want = _cosine_quad(lambda l: R.heat_gauss_integrand(a, b, t, l, r2) if l > 0 else 0.0, s)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-13)
    got0 = R.heat_evolved_gauss(a, b, 0.0, np.array([r2]), np.array([s]))[0]
    assert got0 == pytest.approx(math.exp(-a * r2 - b * s * s), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("lam", [0.01, 0.3, 2.0])
@pytest.mark.parametrize("t,r2", [(1.0, 0.0), (1.0, 2.0), (0.5, 0.4)])
def test_gaveau_integrand_is_the_series(t, r2, lam):
    ns = np.arange(3000)
    series = lam * math.exp(-lam * r2) * _laguerre_series(np.exp(-4.0 * t * lam * (2 * ns + 1)), 2.0 * lam * r2)
    closed = 0.5 * lam / math.sinh(4 * t * lam) * math.exp(-lam * r2 / math.tanh(4 * t * lam))
    assert R.gaveau_integrand(t, lam, r2) == pytest.approx(series, rel=1e-10, abs=1e-15)
    assert R.gaveau_integrand(t, lam, r2) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("t,r2,s", [(1.0, 0.0, 0.0), (1.0, 2.0, 3.0), (0.5, 0.4, -7.0)])
def test_gaveau_kernel_vs_quadrature(t, r2, s):
    got = R.heat_kernel_gaveau(t, np.array([r2]), np.array([s]))[0]
    want = _cosine_quad(lambda l: R.gaveau_integrand(t, l, r2) if l > 0 else 1.0 / (8 * t), s)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-13)


@pytest.mark.parametrize("t", [0.5, 1.0, 1.7])
def test_heat_pairings_vs_quadrature(t):
    # trace: sum_n int e^{-c_n |lam|} |lam| dlam with the geometric sum done first
    trace = 2.0 * quad(lambda l: l * math.exp(-4 * t * l) / -math.expm1(-8 * t * l) if l > 0 else 1 / (8 * t),
                       0, np.inf)[0]
    assert R.trace_heat(t) == pytest.approx(trace, rel=1e-10)
    # boundary measure: 1/4 * (both half-lines) int e^{-4 t x} dx
    mu = 0.25 * 2.0 * quad(lambda x: math.exp(-4 * t * x), 0, np.inf)[0]
    assert R.boundary_measure_heat(t) == pytest.approx(mu, rel=1e-10)
    # F(g (x) 1): (G g)(x, 0) = 2 pi int r J0(2 sqrt(x) r) e^{-r^2} dr, then 2 pi <mu, G g heat>
    def gg(x):
        return 2 * math.pi * quad(lambda r: r * float(mpmath.besselj(0, 2 * math.sqrt(x) * r)) * math.exp(-r * r),
                                  0, 12)[0]
    for x in (0.3, 1.7):
        assert gg(x) == pytest.approx(math.pi * math.exp(-x), rel=1e-10)
    g1 = 2 * math.pi * 0.5 * quad(lambda x: math.pi * math.exp(-x) * math.exp(-4 * t * x), 0, np.inf)[0]
    assert R.g_tensor_one_heat(t) == pytest.approx(g1, rel=1e-10)


@pytest.mark.parametrize("gamma,t", [(2.1, 1.0), (2.3, 0.6), (2.45, 1.4)])
def test_finite_part_vs_quadrature(gamma, t):
    # row n: int_0^inf 2 (e^{-4t(2n+1) lam} - 1) (lam (2n+1))^{-gamma} lam dlam
    def row(n):
        c = 4 * t * (2 * n + 1)
        f = lambda l: 2 * math.expm1(-c * l) * l ** (1 - gamma) * (2 * n + 1) ** (-gamma)
        return quad(f, 0, 1 / c, epsabs=0, epsrel=1e-12)[0] + quad(f, 1 / c, np.inf, epsabs=0, epsrel=1e-12)[0]

    # lam -> lam (2n+1) scales row n to row 0 times (2n+1)^-2; the odd squares sum to pi^2/8
    for n in (1, 4, 11):
        assert row(n) == pytest.approx(row(0) / (2 * n + 1) ** 2, rel=1e-9)
    odd_squares = float(mpmath.nsum(lambda n: 1 / (2 * n + 1) ** 2, [0, mpmath.inf]))
    assert R.finite_part_heat(gamma, t) == pytest.approx(row(0) * odd_squares, rel=1e-9)


@pytest.mark.parametrize("sigma", [0.8, 1.25])
def test_trace_gauss_profile_vs_series(sigma):
    def row(n):
        return 2 * mpmath.quad(lambda l: mpmath.exp(-l * (2 * n + 1) - l * l / (2 * sigma**2)) * l, [0, mpmath.inf])

    assert R.trace_gauss_profile(sigma) == pytest.approx(float(mpmath.nsum(row, [0, mpmath.inf])), rel=1e-9)


def test_boundary_measure_profiles_vs_quadrature():
    assert R.boundary_measure_gauss_profile() == pytest.approx(
        0.25 * 2 * quad(lambda x: math.exp(-x), 0, np.inf)[0], rel=1e-12)
    r0 = 0.5
    ramp = lambda x: float(mpmath.exp(-1 / x) / (mpmath.exp(-1 / x) + mpmath.exp(-1 / (1 - x)))) if 0 < x < 1 else float(x >= 1)
    weights = {0: 1.0, 1: 0.5, -1: -0.5, 2: 0.25, -2: 0.25}
    integral = float(mpmath.quad(lambda x: ramp((x - r0 / 2) / (r0 / 2)) * mpmath.exp(-x), [0, r0 / 2, r0, mpmath.inf]))
    want = 0.25 * 2 * sum(weights.values()) * integral
    assert R.boundary_measure_exp_floor(r0) == pytest.approx(want, rel=1e-10)
