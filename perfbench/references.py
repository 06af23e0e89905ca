"""Closed forms the benchmark checks the program against.

Nothing here imports ``hfourier``: every value is computed from its
textbook formula, so an agreement with the program is evidence, not a
tautology.  ``check_references.py`` tests each formula against a direct
``scipy.integrate`` / ``mpmath`` quadrature of its defining integral.

Conventions (d = 1): Y = (y, eta), r^2 = |Y|^2; the transform pairs f
against conj(e^{i s lam} W(n, m, lam, Y)); the inverse integrates
e^{i s lam} W theta against |lam| dlam with the constant 1/pi^2.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import jv


def _halfline_gl(upper, panels=48, q=24):
    """Composite Gauss-Legendre nodes and weights on [0, upper]."""
    xi, om = np.polynomial.legendre.leggauss(q)
    edges = np.linspace(0.0, upper, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * xi).ravel(), (half[:, None] * om).ravel()


def _cosine_transform(profile, r2, s, upper):
    """(1/pi^2) int_R e^{i s lam} G(|lam|, r2) |lam| dlam for real even G.

    ``profile(lam, r2)`` returns |lam| G on the (r2, lam) mesh.  Evaluated
    for the unique r2 values only, then one matrix product with cos(s lam).
    """
    r2 = np.asarray(r2, dtype=float)
    uniq, inverse = np.unique(r2, return_inverse=True)
    lam, w = _halfline_gl(upper)
    core = profile(lam[None, :], uniq[:, None]) * w          # (R, K)
    vals = 2.0 / math.pi**2 * core @ np.cos(np.outer(lam, np.asarray(s, dtype=float)))
    return vals[inverse.reshape(r2.shape)]


# ---- transforms of Gaussians -------------------------------------------------

def gauss_hat_diagonal(a, b, n, lam):
    """Transform of exp(-a |Y|^2 - b s^2) at (n, n, lam); off-diagonal entries vanish.

    pi^{3/2} b^{-1/2} e^{-lam^2/4b} rho^n / (a + |lam|),  rho = (a - |lam|)/(a + |lam|).
    """
    lam = np.asarray(lam, dtype=float)
    t = np.abs(lam)
    rho = (a - t) / (a + t)
    return math.pi**1.5 / math.sqrt(b) * np.exp(-lam**2 / (4.0 * b)) * rho**n / (a + t)


def heat_gauss_integrand(a, b, t, lam, r2):
    """lam * sum_n gauss_hat(n, lam) e^{-4 t lam (2n + 1)} W(n, n, lam, r) for lam > 0.

    W(n, n) = e^{-lam r^2} L_n(2 lam r^2), summed with the Laguerre generating
    function sum_n z^n L_n(x) = exp(-x z / (1 - z)) / (1 - z),  z = rho e^{-8 t lam}.
    """
    rho = (a - lam) / (a + lam)
    one_minus_z = 2.0 * lam / (a + lam) - rho * np.expm1(-8.0 * t * lam)
    z = 1.0 - one_minus_z
    pref = math.pi**1.5 / math.sqrt(b) * np.exp(-lam**2 / (4.0 * b) - 4.0 * t * lam) / (a + lam)
    return lam * pref / one_minus_z * np.exp(-lam * r2 * (1.0 + z) / one_minus_z)


def heat_evolved_gauss(a, b, t, r2, s):
    """exp(t L) applied to exp(-a |Y|^2 - b s^2), as one lambda-integral of
    :func:`heat_gauss_integrand`."""
    return _cosine_transform(lambda lam, rr: heat_gauss_integrand(a, b, t, lam, rr),
                             r2, s, upper=2.0 * math.sqrt(b) * 7.0)


def gaveau_integrand(t, lam, r2):
    """lam * sum_n e^{-4 t lam (2n + 1)} W(n, n, lam, r) = lam e^{-lam r^2 coth(4 t lam)} / (2 sinh(4 t lam)),
    written without overflow."""
    em1 = -np.expm1(-8.0 * t * lam)
    coth = (2.0 - em1) / em1
    return lam * np.exp(-4.0 * t * lam - lam * r2 * coth) / em1


def heat_kernel_gaveau(t, r2, s):
    """Heat kernel on H^1 (Gaveau 1977):
    pi^{-2} int_0^inf cos(s lam) lam / sinh(4 t lam) e^{-lam r^2 coth(4 t lam)} dlam."""
    return _cosine_transform(lambda lam, rr: gaveau_integrand(t, lam, rr), r2, s, upper=50.0 / (4.0 * t))


# ---- the symbol and its boundary kernel --------------------------------------

def wigner_laguerre(n, m, lam, y, eta, dps=30):
    """W(n, m, lam, (y, eta)) from its Laguerre closed form (Folland, ch. 1).

    With a = sqrt|lam| y, b = 2 sgn(lam) sqrt|lam| eta, rho^2 = (4a^2 + b^2)/2,
    for n >= m:  sqrt(m!/n!) ((2a + ib)/sqrt 2)^(n-m) e^{-rho^2/2} L_m^(n-m)(rho^2);
    for n < m swap the indices and use (-2a + ib).
    """
    with mpmath.workdps(dps):
        r = mpmath.sqrt(abs(mpmath.mpf(lam)))
        a = r * mpmath.mpf(y)
        b = 2 * mpmath.sign(lam) * r * mpmath.mpf(eta)
        rho2 = (4 * a * a + b * b) / 2
        lo, hi = (m, n) if n >= m else (n, m)
        base = (2 * a + 1j * b) if n >= m else (-2 * a + 1j * b)
        val = (
            mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
            * (base / mpmath.sqrt(2)) ** (hi - lo)
            * mpmath.exp(-rho2 / 2)
            * mpmath.laguerre(lo, hi - lo, rho2)
        )
        return complex(val)


def boundary_kernel_bessel(xdot, k, y, eta):
    """(-1)^k e^{-i k phi} J_k(2 sqrt|xdot| |Y|),  phi = atan2(sgn(xdot) eta, y)."""
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    phi = np.arctan2(math.copysign(1.0, xdot) * eta, y)
    return (-1.0) ** k * np.exp(-1j * k * phi) * jv(k, 2.0 * math.sqrt(abs(xdot)) * np.hypot(y, eta))


# ---- pairings of frequency distributions with test functions ------------------

def trace_heat(t):
    """<I, heat(t)> = sum_n int e^{-4t(2n+1)|lam|} |lam| dlam = pi^2 / (64 t^2)."""
    return math.pi**2 / (64.0 * t * t)


def finite_part_heat(gamma, t):
    """Finite part of the diagonal power |lam|(2n+1))^{-gamma} against heat(t):
    2 Gamma(2 - gamma) (4t)^{gamma - 2} pi^2 / 8."""
    return 2.0 * gamma_fn(2.0 - gamma) * (4.0 * t) ** (gamma - 2.0) * math.pi**2 / 8.0


def boundary_measure_heat(t):
    """<mu, heat(t)> = 1/4 * 2 * int_0^inf e^{-4 t x} dx = 1 / (8 t)."""
    return 1.0 / (8.0 * t)


def g_tensor_one_heat(t):
    """<F(g (x) 1), heat(t)> for g = e^{-|Y|^2}: 2 pi <mu, (G g) heat(t)> with
    (G g)(x, 0) = pi e^{-x}, giving pi^2 / (1 + 4 t)."""
    return math.pi**2 / (1.0 + 4.0 * t)


def trace_gauss_profile(sigma):
    """<I, Theta> for the profile e^{-x} e^{-lam^2/(2 sigma^2)}:
    int_0^inf lam e^{-lam^2/(2 sigma^2)} / sinh(lam) dlam."""

    def f(lam):
        if lam == 0.0:
            return 1.0
        return 2.0 * lam * math.exp(-lam * lam / (2.0 * sigma**2) - lam) / -math.expm1(-2.0 * lam)

    return quad(f, 0.0, 12.0 * sigma + 40.0, limit=200, epsabs=1e-14, epsrel=1e-13)[0]


def boundary_measure_gauss_profile():
    """<mu, Theta> for e^{-x} e^{-lam^2/(2 sigma^2)}: 1/4 * 2 * int_0^inf e^{-x} dx."""
    return 0.5


def _ramp(t):
    """C-infinity step 0 -> 1 on [0, 1]: e^{-1/t} / (e^{-1/t} + e^{-1/(1-t)})."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    A = math.exp(-1.0 / t)
    C = math.exp(-1.0 / (1.0 - t))
    return A / (A + C)


def boundary_measure_exp_floor(r0, k_weights=(1.0, 0.5, 0.25)):
    """<mu, Theta> for the floor profile c_k ramp((x - r0/2)/(r0/2)) e^{-x}:
    1/4 * 2 * (sum_k c_k) * int_0^inf ramp e^{-x} dx, where c_{-k} = (-1)^k c_k."""
    c_sum = k_weights[0] + sum(w * (1 + (-1) ** k) for k, w in enumerate(k_weights) if k > 0)
    lo, hi = 0.5 * r0, r0
    inner = quad(lambda x: _ramp((x - lo) / (hi - lo)) * math.exp(-x), lo, hi,
                 epsabs=1e-15, epsrel=1e-13)[0]
    return 0.5 * c_sum * (inner + math.exp(-hi))
