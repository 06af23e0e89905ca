"""Explicit Schwartz functions on the frequency set built from profiles.

A profile is a smooth function f(x, k, lam) on [0, inf)^d x Z^d x R with
fast decay in (x, k); it induces the frequency function

    Theta_f(n, m, lam) = f(|lam| R(n, m), m - n, lam),
    R(n, m) = (n_j + m_j + 1)_j,

whose continuous boundary value at (x., k) is f(|x.|, k, 0).  A profile
evaluates whole arrays at once, like a frequency function: x is a float
array of shape S + (d,), k = m - n an integer array of shape S + (d,) and
lam a float array, all broadcasting together, so Theta_f is one profile
call on x = |lam| R(n, m) and k = m - n.  Two support classes are used:
``k_zero`` (diagonal, k = 0 only) and ``x_floor`` (support bounded away
from x = 0, with the parity f(x, -k, lam) = (-1)^{|k|} f(x, k, lam)).

The x_floor fixtures switch on through a smooth transition ramp so that
the analytic partial derivatives exist everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from .freq_space import BoundaryPoint, FreqFunction

__all__ = [
    "Profile",
    "profile_to_freq_function",
    "boundary_diff",
    "heat_profile",
    "profile_gauss",
    "profile_exp_floor",
]


# ---- smooth transition ramp -------------------------------------------------

def _bump_ratio(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.clip(t, 0.0, 1.0, out=np.empty_like(t))  # an array also for 0-d t
    ramp = (t > 0) & (t < 1)
    inner = t[ramp]
    A = np.exp(-1.0 / inner)
    C = np.exp(-1.0 / (1.0 - inner))
    out[ramp] = A / (A + C)
    return out


def _bump_ratio_d1(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0) & (t < 1)
    tc = np.clip(t, 1e-9, 1 - 1e-9)
    A = np.exp(-1.0 / tc)
    C = np.exp(-1.0 / (1.0 - tc))
    num = A * C * (1.0 / tc**2 + 1.0 / (1.0 - tc) ** 2)
    return np.where(inside, num / (A + C) ** 2, 0.0)


def _bump_ratio_d2(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0) & (t < 1)
    tc = np.clip(t, 1e-9, 1 - 1e-9)
    A = np.exp(-1.0 / tc)
    C = np.exp(-1.0 / (1.0 - tc))
    Ap = A / tc**2
    Cp = -C / (1.0 - tc) ** 2
    App = A * (1.0 - 2.0 * tc) / tc**4
    Cpp = C * (2.0 * tc - 1.0) / (1.0 - tc) ** 4
    D = A + C
    Dp = Ap + Cp
    Dpp = App + Cpp
    s1 = (Ap * D - A * Dp) / D**2
    s2 = (App * D - A * Dpp) / D**2 - 2.0 * Dp * s1 / D
    return np.where(inside, s2, 0.0)


# ---- profile type -----------------------------------------------------------

@dataclass
class Profile:
    """Smooth profile f(x, k, lam) with analytic partial derivatives.

    ``value/dx/dxx/dlam`` take (x, k, lam): x a float array of shape
    S + (d,), k an integer array (or a tuple) of shape S + (d,) and lam a
    float array broadcasting against S; the result has the broadcast
    shape.  dx/dxx take the coordinate j as a final argument.
    ``support`` is either ``("k_zero",)`` or ``("x_floor", r0)`` where the
    transition ramp runs on [r0/2, r0].
    """

    value: callable
    dx: callable
    dxx: callable
    dlam: callable
    support: tuple
    d: int = 1
    k_extent: int = 0  # largest |k| (per coordinate) carrying support
    label: str = ""


def profile_to_freq_function(P):
    """Wrap a profile as a FreqFunction with analytic lambda-derivatives:
    each evaluation is one profile call on x = |lam|(n + m + 1), k = m - n."""
    d = P.d

    def args(n, m, lam):
        R = n + m + 1.0
        return np.abs(lam)[..., None] * R, m - n, R

    def value(n, m, lam):
        x, k, _ = args(n, m, lam)
        return P.value(x, k, lam)

    def dlam(n, m, lam):
        x, k, R = args(n, m, lam)
        out = P.dlam(x, k, lam)
        for j in range(d):
            out = out + np.sign(lam) * R[..., j] * P.dx(x, k, lam, j)
        return out

    def boundary(xdot, k):
        return P.value(np.abs(xdot), k, np.asarray(0.0))

    return FreqFunction(
        value, d=d, dlam=dlam, boundary=boundary, band=P.k_extent, label=P.label or "profile",
    )


def boundary_diff(P, b):
    """Boundary values of the frequency Laplacian and lambda-derivative of
    Theta_P at (x., k): d = 1, floor-supported profiles only.

    Returns the pair
        ( x d2f/dx2 + df/dx - k^2/(4x) f ,  df/dlam )  at (|x.|, k, 0).
    """
    if P.d != 1:
        raise ValueError("boundary formulas implemented for d = 1 only")
    if P.support[0] != "x_floor":
        raise ValueError("boundary formulas require an x_floor profile")
    if not isinstance(b, BoundaryPoint) or b.is_origin:
        raise ValueError("need a non-origin boundary point")
    x = abs(b.xdot[0])
    k = b.k
    xa = np.array([x])
    zero = np.asarray(0.0)
    fx = complex(P.dx(xa, k, zero, 0))
    fxx = complex(P.dxx(xa, k, zero, 0))
    fl = complex(P.dlam(xa, k, zero))
    f = complex(P.value(xa, k, zero))
    lap_ext = x * fxx + fx - (k[0] ** 2 / (4.0 * x)) * f
    return lap_ext, fl


# ---- stock fixtures ---------------------------------------------------------

def heat_profile(t, d=1):
    """Diagonal frequency function exp(-4 t |lam| (2|n| + d)) delta_{n,m}.

    Carries the analytic lambda-derivative and the boundary extension
    exp(-4 t |x.|_1) delta_{k,0}.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("time must be positive and finite")

    def rate(n, m):
        # 4 t (2|n| + d), and where the function lives (n == m)
        return 4.0 * t * (2.0 * n.sum(axis=-1) + d), (n == m).all(axis=-1)

    def interior(n, m, lam):
        c, diag = rate(n, m)
        return np.where(diag, np.exp(-c * np.abs(lam)), 0.0) + 0j

    def dlam(n, m, lam):
        c, diag = rate(n, m)
        return np.where(diag, -c * np.sign(lam) * np.exp(-c * np.abs(lam)), 0.0) + 0j

    def boundary(xdot, k):
        return np.where((k == 0).all(axis=-1), np.exp(-4.0 * t * np.abs(xdot).sum(axis=-1)), 0.0)

    return FreqFunction(
        interior, d=d, dlam=dlam, boundary=boundary, band=0, label=f"heat(t={t})",
    )


def _on_k0(k, v, lam):
    """v on the ``k_zero`` support k = 0 and 0 elsewhere, broadcast against lam."""
    return np.where((np.asarray(k) == 0).all(axis=-1), v, np.zeros(np.shape(lam)))


def profile_gauss(sigma=1.0, d=1):
    """Diagonal profile exp(-sum x_j) exp(-lam^2 / (2 sigma^2))."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")

    def parts(x, k, lam):
        e = np.exp(-x.sum(axis=-1)) * np.exp(-np.asarray(lam) ** 2 / (2.0 * sigma**2))
        return _on_k0(k, e, lam)

    def value(x, k, lam):
        return parts(x, k, lam)

    def dx(x, k, lam, j):
        return -parts(x, k, lam)

    def dxx(x, k, lam, j):
        return parts(x, k, lam)

    def dlam(x, k, lam):
        return -(np.asarray(lam) / sigma**2) * parts(x, k, lam)

    return Profile(value, dx, dxx, dlam, support=("k_zero",), d=d,
                   label=f"gauss_profile(sigma={sigma})")


def profile_exp_floor(r0=0.5, d=1, lam_slope=0.0):
    """Floor-supported profile with small |k| support and the sign parity
    f(x, -k, lam) = (-1)^{|k|} f(x, k, lam).

    The ramp switches smoothly on over [r0/2, r0]; the profile is
    exp(-sum x_j) times (1 + lam_slope * lam) exp(-lam^2), weighted by
    1, 1/2, 1/4 at |k|_1 = 0, 1, 2 and zero beyond, so a nonzero
    ``lam_slope`` gives the lambda-derivative a nontrivial boundary value.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise ValueError("r0 must be positive and finite")
    a, b = 0.5 * r0, r0
    scale = 1.0 / (b - a)
    q = float(lam_slope)
    weights = np.array([1.0, 0.5, 0.25])

    def coeff(k):
        k = np.asarray(k)
        kk = np.abs(k).sum(axis=-1)
        c = np.where(kk < len(weights), weights[np.minimum(kk, len(weights) - 1)], 0.0)
        neg = k < 0
        return np.where(neg.any(axis=-1) & (kk % 2 == 1), c * (-1.0) ** neg.sum(axis=-1), c)

    def lamfac(lam, order=0):
        lam = np.asarray(lam, dtype=float)
        e = np.exp(-(lam**2))
        if order == 0:
            return (1.0 + q * lam) * e
        return e * (q - 2.0 * lam - 2.0 * q * lam**2)

    def pieces(x):
        t = (x - a) * scale
        g = np.prod(_bump_ratio(t), axis=-1)
        ex = np.exp(-x.sum(axis=-1))
        return t, g, ex

    def value(x, k, lam):
        t, g, ex = pieces(x)
        return coeff(k) * g * ex * lamfac(lam)

    def _dx_core(x, j):
        t, g, ex = pieces(x)
        gj = _bump_ratio(t[..., j])
        gpj = _bump_ratio_d1(t[..., j]) * scale
        rest = np.where(gj > 0, g / np.where(gj > 0, gj, 1.0), 0.0)
        return ex * (rest * gpj - g)

    def dx(x, k, lam, j):
        return coeff(k) * _dx_core(x, j) * lamfac(lam)

    def dxx(x, k, lam, j):
        t, g, ex = pieces(x)
        gj = _bump_ratio(t[..., j])
        gpj = _bump_ratio_d1(t[..., j]) * scale
        gppj = _bump_ratio_d2(t[..., j]) * scale**2
        rest = np.where(gj > 0, g / np.where(gj > 0, gj, 1.0), 0.0)
        # each x_j derivative of exp(-x_j) brings a -1 alongside the ramp
        return coeff(k) * ex * (rest * gppj - 2.0 * rest * gpj + g) * lamfac(lam)

    def dlam(x, k, lam):
        t, g, ex = pieces(x)
        return coeff(k) * g * ex * lamfac(lam, 1)

    return Profile(value, dx, dxx, dlam, support=("x_floor", r0), d=d,
                   k_extent=len(weights) - 1, label=f"exp_floor(r0={r0})")
