"""Explicit Schwartz functions on the frequency set built from profiles.

A profile is a smooth function f(x, k, lam) on [0, inf)^d x Z^d x R with
fast decay in (x, k); it induces the frequency function

    Theta_f(n, m, lam) = f(|lam| R(n, m), m - n, lam),
    R(n, m) = (n_j + m_j + 1)_j,

whose continuous boundary value at (x., k) is f(|x.|, k, 0).  Two support
classes are used: ``k_zero`` (diagonal, k = 0 only) and ``x_floor``
(support bounded away from x = 0, with the parity
f(x, -k, lam) = (-1)^{|k|} f(x, k, lam)).

The x_floor fixtures switch on through a smooth transition ramp so that
the analytic partial derivatives exist everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from .freq_space import BoundaryPoint, FreqFunction, FreqPoint, one_plus_weight

__all__ = [
    "Profile",
    "profile_theta",
    "profile_to_freq_function",
    "boundary_diff",
    "heat_profile",
    "m_equiv_fit",
    "profile_heat",
    "profile_gauss",
    "profile_exp_floor",
]


# ---- smooth transition ramp -------------------------------------------------

def _bump_ratio(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    A = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-12)), 0.0)
    C = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-12)), 0.0)
    return A / (A + C)


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

    ``value/dx/dxx/dlam`` take (x, k, lam) with x of shape (..., d)
    broadcasting against lam of shape (...); k is a tuple of ints; dx/dxx
    take the coordinate j as a final argument.  ``support`` is either
    ``("k_zero",)`` or ``("x_floor", r0)`` where the transition ramp runs
    on [r0/2, r0].
    """

    value: callable
    dx: callable
    dxx: callable
    dlam: callable
    support: tuple
    d: int = 1
    dxlam: callable = None
    dlam2: callable = None
    k_extent: int = 0  # largest |k| (per coordinate) carrying support
    label: str = ""

    @property
    def diagonal(self):
        return self.support[0] == "k_zero"


def profile_theta(P, point):
    """Evaluate Theta_P at an interior or boundary point of the completion."""
    theta = profile_to_freq_function(P)
    if isinstance(point, FreqPoint):
        return complex(theta(point.n, point.m, point.lam))
    if isinstance(point, BoundaryPoint):
        return theta.at_boundary(point.xdot, point.k)
    raise TypeError("expected a FreqPoint or BoundaryPoint")


def _by_k(fn, n, m, lam):
    """Evaluate fn(x, k, lam, R) over broadcast index arrays.

    Profiles take the integer index k = m - n as a tuple, so the entries are
    grouped by k; the groups are found on the index arrays before they are
    broadcast against lam (they are few, and far smaller than the result).
    """
    n, m = np.broadcast_arrays(n, m)
    shape = np.broadcast_shapes(n.shape[:-1], lam.shape)
    k = m - n
    R = np.broadcast_to(n + m + 1.0, shape + n.shape[-1:])
    lam = np.broadcast_to(lam, shape)
    out = np.empty(shape, dtype=complex)
    for kk in np.unique(k.reshape(-1, k.shape[-1]), axis=0):
        sel = np.broadcast_to((k == kk).all(axis=-1), shape)
        Rs, ls = R[sel], lam[sel]
        out[sel] = fn(np.abs(ls)[..., None] * Rs, tuple(kk.tolist()), ls, Rs)
    return out


def profile_to_freq_function(P):
    """Wrap a profile as a FreqFunction with analytic lambda-derivatives."""
    d = P.d

    def value(x, k, lam, R):
        return P.value(x, k, lam)

    def dlam_k(x, k, lam, R):
        out = np.asarray(P.dlam(x, k, lam), dtype=complex)
        sgn = np.sign(lam)
        for j in range(d):
            out = out + sgn * R[..., j] * np.asarray(P.dx(x, k, lam, j), dtype=complex)
        return out

    def dlam2_k(x, k, lam, R):
        sgn = np.sign(lam)
        return (
            R[..., 0] ** 2 * np.asarray(P.dxx(x, k, lam, 0), dtype=complex)
            + 2.0 * sgn * R[..., 0] * np.asarray(P.dxlam(x, k, lam, 0), dtype=complex)
            + np.asarray(P.dlam2(x, k, lam), dtype=complex)
        )

    def boundary(xdot, k):
        x = np.abs(np.asarray(xdot, dtype=float))
        return complex(np.asarray(P.value(x, tuple(k), np.asarray(0.0)), dtype=complex))

    has_dlam2 = d == 1 and P.dxlam is not None and P.dlam2 is not None
    return FreqFunction(
        lambda n, m, lam: _by_k(value, n, m, lam),
        d=d,
        dlam=lambda n, m, lam: _by_k(dlam_k, n, m, lam),
        dlam2=(lambda n, m, lam: _by_k(dlam2_k, n, m, lam)) if has_dlam2 else None,
        boundary=boundary,
        band=0 if P.diagonal else P.k_extent,
        label=P.label or "profile",
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
    fx = complex(np.asarray(P.dx(xa, k, zero, 0), dtype=complex).reshape(-1)[0])
    fxx = complex(np.asarray(P.dxx(xa, k, zero, 0), dtype=complex).reshape(-1)[0])
    fl = complex(np.asarray(P.dlam(xa, k, zero), dtype=complex).reshape(-1)[0])
    f = complex(np.asarray(P.value(xa, k, zero), dtype=complex).reshape(-1)[0])
    lap_ext = x * fxx + fx - (k[0] ** 2 / (4.0 * x)) * f
    return lap_ext, fl


# ---- stock fixtures ---------------------------------------------------------

def heat_profile(t, d=1):
    """Diagonal frequency function exp(-4 t |lam| (2|n| + d)) delta_{n,m}.

    Carries analytic first and second lambda-derivatives and the boundary
    extension exp(-4 t |x.|_1) delta_{k,0}.
    """
    if t <= 0:
        raise ValueError("time must be positive")

    def rate(n, m):
        # 4 t (2|n| + d), and where the function lives (n == m)
        return 4.0 * t * (2.0 * n.sum(axis=-1) + d), (n == m).all(axis=-1)

    def interior(n, m, lam):
        c, diag = rate(n, m)
        return np.where(diag, np.exp(-c * np.abs(lam)), 0.0) + 0j

    def dlam(n, m, lam):
        c, diag = rate(n, m)
        return np.where(diag, -c * np.sign(lam) * np.exp(-c * np.abs(lam)), 0.0) + 0j

    def dlam2(n, m, lam):
        c, diag = rate(n, m)
        return np.where(diag, c * c * np.exp(-c * np.abs(lam)), 0.0) + 0j

    def boundary(xdot, k):
        if any(k):
            return 0.0
        return math.exp(-4.0 * t * sum(abs(v) for v in xdot))

    return FreqFunction(
        interior, d=d, dlam=dlam, dlam2=dlam2, boundary=boundary,
        band=0, label=f"heat(t={t})",
    )


def profile_heat(t, d=1):
    """Profile form of the heat fixture: exp(-4 t sum x_j), k = 0 only."""

    def only_k0(k, arr):
        return arr if all(v == 0 for v in k) else np.zeros_like(arr)

    def value(x, k, lam):
        e = np.exp(-4.0 * t * x.sum(axis=-1))
        return only_k0(k, np.broadcast_to(e, np.broadcast_shapes(e.shape, np.shape(lam))).copy())

    def dx(x, k, lam, j):
        return -4.0 * t * value(x, k, lam)

    def dxx(x, k, lam, j):
        return 16.0 * t * t * value(x, k, lam)

    def dlam(x, k, lam):
        return np.zeros(np.broadcast_shapes(x.shape[:-1], np.shape(lam)), dtype=float)

    return Profile(value, dx, dxx, dlam, support=("k_zero",), d=d,
                   dxlam=lambda x, k, lam, j: dlam(x, k, lam),
                   dlam2=dlam, label=f"heat_profile(t={t})")


def profile_gauss(sigma=1.0, d=1):
    """Diagonal profile exp(-sum x_j) exp(-lam^2 / (2 sigma^2))."""

    def parts(x, k, lam):
        e = np.exp(-x.sum(axis=-1)) * np.exp(-np.asarray(lam) ** 2 / (2.0 * sigma**2))
        if any(v != 0 for v in k):
            return np.zeros_like(e)
        return e

    def value(x, k, lam):
        return parts(x, k, lam)

    def dx(x, k, lam, j):
        return -parts(x, k, lam)

    def dxx(x, k, lam, j):
        return parts(x, k, lam)

    def dlam(x, k, lam):
        return -(np.asarray(lam) / sigma**2) * parts(x, k, lam)

    def dxlam(x, k, lam, j):
        return (np.asarray(lam) / sigma**2) * parts(x, k, lam)

    def dlam2(x, k, lam):
        lam = np.asarray(lam)
        return ((lam / sigma**2) ** 2 - 1.0 / sigma**2) * parts(x, k, lam)

    return Profile(value, dx, dxx, dlam, support=("k_zero",), d=d,
                   dxlam=dxlam, dlam2=dlam2, label=f"gauss_profile(sigma={sigma})")


def profile_exp_floor(r0=0.5, d=1, k_weights=(1.0, 0.5, 0.25), lam_slope=0.0):
    """Floor-supported profile with small |k| support and the sign parity
    f(x, -k, lam) = (-1)^{|k|} f(x, k, lam).

    The ramp switches smoothly on over [r0/2, r0]; the profile is
    exp(-sum x_j) times (1 + lam_slope * lam) exp(-lam^2), so a nonzero
    ``lam_slope`` gives the lambda-derivative a nontrivial boundary value.
    """
    a, b = 0.5 * r0, r0
    scale = 1.0 / (b - a)
    q = float(lam_slope)

    def coeff(k):
        kk = sum(abs(v) for v in k)
        if kk >= len(k_weights):
            return 0.0
        c = k_weights[kk]
        neg = sum(1 for v in k if v < 0)
        return c * (-1.0) ** neg if any(v < 0 for v in k) and kk % 2 == 1 else c

    def lamfac(lam, order=0):
        lam = np.asarray(lam, dtype=float)
        e = np.exp(-(lam**2))
        if order == 0:
            return (1.0 + q * lam) * e
        if order == 1:
            return e * (q - 2.0 * lam - 2.0 * q * lam**2)
        return e * (4.0 * q * lam**3 + 4.0 * lam**2 - 6.0 * q * lam - 2.0)

    def pieces(x):
        t = (x - a) * scale
        g = np.prod(_bump_ratio(t), axis=-1)
        ex = np.exp(-x.sum(axis=-1))
        return t, g, ex

    def _zero(x, lam):
        return np.zeros(np.broadcast_shapes(x.shape[:-1], np.shape(lam)))

    def value(x, k, lam):
        c = coeff(k)
        if c == 0.0:
            return _zero(x, lam)
        t, g, ex = pieces(x)
        return c * g * ex * lamfac(lam)

    def _dx_core(x, j):
        t, g, ex = pieces(x)
        gj = _bump_ratio(t[..., j])
        gpj = _bump_ratio_d1(t[..., j]) * scale
        rest = np.where(gj > 0, g / np.where(gj > 0, gj, 1.0), 0.0)
        return ex * (rest * gpj - g)

    def dx(x, k, lam, j):
        c = coeff(k)
        if c == 0.0:
            return _zero(x, lam)
        return c * _dx_core(x, j) * lamfac(lam)

    def dxx(x, k, lam, j):
        c = coeff(k)
        if c == 0.0:
            return _zero(x, lam)
        t, g, ex = pieces(x)
        gj = _bump_ratio(t[..., j])
        gpj = _bump_ratio_d1(t[..., j]) * scale
        gppj = _bump_ratio_d2(t[..., j]) * scale**2
        rest = np.where(gj > 0, g / np.where(gj > 0, gj, 1.0), 0.0)
        # each x_j derivative of exp(-x_j) brings a -1 alongside the ramp
        return c * ex * (rest * gppj - 2.0 * rest * gpj + g) * lamfac(lam)

    def dlam(x, k, lam):
        c = coeff(k)
        if c == 0.0:
            return _zero(x, lam)
        t, g, ex = pieces(x)
        return c * g * ex * lamfac(lam, 1)

    def dxlam(x, k, lam, j):
        c = coeff(k)
        if c == 0.0:
            return _zero(x, lam)
        return c * _dx_core(x, j) * lamfac(lam, 1)

    def dlam2(x, k, lam):
        c = coeff(k)
        if c == 0.0:
            return _zero(x, lam)
        t, g, ex = pieces(x)
        return c * g * ex * lamfac(lam, 2)

    return Profile(value, dx, dxx, dlam, support=("x_floor", r0), d=d,
                   dxlam=dxlam, dlam2=dlam2, k_extent=len(k_weights) - 1,
                   label=f"exp_floor(r0={r0})")


def m_equiv_fit(theta1, theta2, M, N, samples):
    """Least constant C with |theta1 - theta2| <= C |lam|^M (1 + w)^{-N}
    over the sample set, where w = |lam|(|n+m| + d) + |m-n|.

    A value stable under sample refinement is numerical evidence of
    M-equivalence of the two functions.
    """
    n = np.array([pt.n for pt in samples])
    m = np.array([pt.m for pt in samples])
    lam = np.array([pt.lam for pt in samples])
    gap = np.abs(theta1(n, m, lam) - theta2(n, m, lam))
    bound = np.abs(lam) ** M * one_plus_weight(n, m, lam, n.shape[-1]) ** (-N)
    ratio = np.divide(gap, bound, out=np.zeros_like(gap), where=bound > 0)
    return float(ratio.max())
