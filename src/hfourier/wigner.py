"""Wigner transform of Hermite pairs and its boundary limit kernel.

The scalar symbol of the group Fourier transform is

    W(n, m, lam, Y) = int e^{2 i lam <eta, z>} H_{n,lam}(y + z) H_{m,lam}(-y + z) dz,

which factorizes over the coordinates.  After the substitution
v = sqrt|lam| z the one-dimensional factor becomes

    I(n, m, a, b) = int e^{i b v} h_n(a + v) h_m(v - a) dv,
    a = sqrt|lam| y,   b = 2 sgn(lam) sqrt|lam| eta,

a Laguerre function (Folland, Harmonic Analysis in Phase Space, 1989,
ch. 1).  With alpha = |n - m|, k = min(n, m), rho^2 = 2a^2 + b^2/2 and
z = 2a + ib for n >= m, z = -2a + ib for n < m,

    I = e^{i alpha arg z} ell_k^alpha(rho^2),
    ell_k^alpha(x) = sqrt(k! / (k + alpha)!) x^{alpha/2} e^{-x/2} L_k^alpha(x).

The normalized functions ell_k^alpha are computed by their three-term
recurrence in k, which is stable for k in the hundreds.  A sum over k
stores the recurrence rows of each run of k and contracts them with their
coefficients in one GEMM at the run's end, and a running bound on the rows
checks for their rescale by 2^400 only where one can be needed
(:func:`_laguerre_sum`).  As
rho^2 = 2 |lam| |Y|^2 and arg z = sgn(lam) phi or pi - sgn(lam) phi,
phi = atan2(eta, y), each symbol is a radial function times an angular
factor, so a banded sum needs only the distinct radii of a grid
(:func:`wigner_series_radial`).

A dense sum over (n, m) instead goes through the 45-degree rotation of the
Hermite pairs (:func:`wigner_series_dense`): with N = n + m,
h_n(a + v) h_m(v - a) = sum_k D_N[k, n] h_{N-k}(sqrt2 v) h_k(sqrt2 a), and
the Hermite functions are eigenfunctions of the Fourier transform, so

    I(n, m, a, b) = sqrt(pi) sum_k D_N[k, n] i^{N-k} h_{N-k}(b / sqrt2) h_k(sqrt2 a).

As the frequency point degenerates (lam -> 0 with lam(n + m) fixed) the
symbol tends to the compact boundary kernel

    K(x., k, y, eta) = (1/2pi) int_{-pi}^{pi}
        e^{i (2 |x.|^{1/2} (y sin z + eta sgn(x.) cos z) + k z)} dz
                     = (-1)^k e^{-i k phi} J_k(2 |x.|^{1/2} |Y|),

with phi = atan2(sgn(x.) eta, y) (DLMF 10.9).
"""

import math

import numpy as np
from scipy.special import jv, xlogy

from .hermite import _rotation_block, hermite_rows

__all__ = ["wigner_eval", "wigner_conj_grid", "wigner_series_radial", "wigner_series_dense",
           "boundary_kernel"]

# an exact power of two, so rescaling the recurrence loses no bits
_RESCALE = 2.0 ** 400
_LOG_RESCALE = 400.0 * math.log(2.0)
# recurrence values held before a contraction (2 MB of doubles)
_CHUNK = 1 << 18
# the running bound on the recurrence rows covers their rounding with this factor
_SLACK = 1.0 + 1e-6


def _laguerre_sum(alpha, coeffs, x):
    """sum_k coeffs[k] ell_k^alpha(x) for k = 0 .. len(coeffs) - 1.

    ``coeffs`` has shape (K + 1,) + c, and each coeffs[k] broadcasts
    against x: the result has the broadcast shape of c and x.shape, whose
    trailing axes must be x's own (so c = (L, 1) against x of shape
    (L, R) sums a separate series on each row of x).  The coefficients may
    vary along x's first axis only.  The recurrence

        sqrt((k + 1)(k + alpha + 1)) ell_{k+1}
            = (2k + 1 + alpha - x) ell_k - sqrt(k (k + alpha)) ell_{k-1}

    starts from 1 in place of ell_0 = x^{alpha/2} e^{-x/2} / sqrt(alpha!)
    and carries a per-point log-scale, so that neither that factor (which
    underflows for x beyond ~1400) nor the growing rows leave the
    floating-point range.

    Each row of x (its leading axis) retires from the recurrence past the
    last k at which its coefficients are nonzero: the rows are sorted by
    that extent, each step runs on the prefix still live, and the result
    is unsorted.  Where every row shares one coefficient series (1-d x or
    coeffs without a row axis), all of x is one row that steps to the last
    k.  The steps of a segment (a run of k with the same live rows, cut
    at 2 MB of values) are stored, not summed: at its end one stacked real
    GEMM, batched over the rows, contracts them with the real view of
    their coefficients.  The 2^400 rescale is checked only where it can
    fire: a scalar bound B_k >= max |ell_k| over the live points follows
    the recurrence with |2k + 1 + alpha - x| at its largest, and the rows
    are tested once B passes 2^400, then B restarts from their maxima.  A
    point that exceeds 2^400 has its stored rows of the segment and its
    partial sum divided by 2^400, which is exact.
    """
    coeffs = np.asarray(coeffs)
    x = np.asarray(x, dtype=float)
    # coeffs[k] as its leading (channel) axes and its axes against x
    c = (1,) * max(x.ndim - coeffs.ndim + 1, 0) + coeffs.shape[1:]
    lead, tail = c[:len(c) - x.ndim], c[len(c) - x.ndim:]
    if any(n != 1 for n in tail[1:]):
        raise ValueError("coefficients may vary along the first axis of x only")
    per_row = x.ndim > 0 and tail[0] > 1
    xr = x.reshape(len(x) if per_row else 1, -1)                     # (rows, points)
    terms = coeffs.reshape(len(coeffs), math.prod(lead), -1)          # (K + 1, channels, rows)
    if per_row:
        nonzero = (terms != 0).any(axis=1)                             # (K + 1, rows)
        # last k with a nonzero coefficient per row (-1 for none)
        last = len(terms) - 1 - np.argmax(nonzero[::-1], axis=0)
        extent = np.where(nonzero.any(axis=0), last, -1)
        order = np.argsort(-extent, kind="stable")
        xr, terms = xr[order], terms[:, :, order]
        # steps k in [start, stop) compute ell_{k+1} for the first `rows` rows,
        # those whose extent reaches stop
        stops = np.unique(extent[extent > 0])
        rows = len(extent) - np.searchsorted(np.sort(extent), stops)
        segments = zip(rows.tolist(), [0] + stops[:-1].tolist(), stops.tolist())
    else:
        segments = [(1, 0, len(terms) - 1)] if len(terms) > 1 else []
    # the GEMM operand per row, (K + 1, channels), complex as (re, im) pairs
    dtype = complex if np.iscomplexobj(terms) else float
    weights = np.ascontiguousarray(terms.transpose(2, 0, 1), dtype=dtype).view(float)

    log_scale = 0.5 * xlogy(alpha, xr) - 0.5 * xr - 0.5 * math.lgamma(alpha + 1.0)
    prev, cur = np.zeros(xr.shape), np.ones(xr.shape)
    bound_prev, bound = 0.0, 1.0
    acc = weights[:, None, 0] * cur[..., None]                         # (rows, points, channels)
    for top, start, stop in segments:
        # views of the live prefix: a retired row keeps its sum and its scale
        xs, scale, sums = xr[:top], log_scale[:top], acc[:top]
        prev, cur = prev[:top], cur[:top]
        # an interval holding 0 and every live x
        lo, hi = float(xs.min(initial=0.0)), float(xs.max(initial=0.0))
        span = max(1, _CHUNK // max(xs.size, 1))
        tmp = np.empty(xs.shape)
        for begin in range(start, stop, span):
            steps = np.empty((min(span, stop - begin),) + xs.shape)
            for i, row in enumerate(steps):
                k = begin + i
                d, a = 2 * k + 1 + alpha, math.sqrt(k * (k + alpha))
                q = math.sqrt((k + 1) * (k + alpha + 1.0))
                np.subtract(d, xs, out=row)
                row *= cur
                row -= np.multiply(a, prev, out=tmp)
                row /= q
                prev, cur = cur, row
                # |ell_{k+1}| <= (max |d - x| |ell_k| + a |ell_{k-1}|) / q on the live points
                growth = max(d - lo, hi - d) * bound + a * bound_prev
                bound_prev, bound = bound, growth / q * _SLACK
                if bound > _RESCALE:
                    big = np.abs(cur) > _RESCALE
                    if big.any():
                        steps[: i + 1, big] /= _RESCALE
                        if i == 0:
                            prev[big] /= _RESCALE
                        sums[big] /= _RESCALE
                        scale[big] += _LOG_RESCALE
                    bound_prev = float(np.abs(prev).max(initial=0.0))
                    bound = float(np.abs(cur).max(initial=0.0))
            sums += steps.transpose(1, 2, 0) @ weights[:top, begin + 1:begin + 1 + len(steps)]
    if dtype is complex:
        acc = acc.view(complex)
    log_scale = log_scale[..., None]
    if log_scale.min(initial=0.0) < -700.0:
        # at large x a sum can stay large under a scale that underflows
        # on its own (more so once its row retires): apply it in halves
        half = np.where(log_scale < -700.0, np.maximum(0.5 * log_scale, -700.0), 0.0)
        out = acc * np.exp(log_scale - half) * np.exp(half)
    else:
        out = acc * np.exp(log_scale)
    if per_row:
        out = out[np.argsort(order)]
    return out.transpose(2, 0, 1).reshape(lead + x.shape)


def _scaled_coords(lam, y, eta):
    """(a, b, rho^2) of the 1-d factor at the points (y, eta)."""
    if lam == 0:
        raise ValueError("lam must be nonzero")
    root = math.sqrt(abs(lam))
    a = root * np.asarray(y, dtype=float)
    b = 2.0 * math.copysign(root, lam) * np.asarray(eta, dtype=float)
    return a, b, 2.0 * a * a + 0.5 * b * b


def _phase(alpha, a, b, sign):
    """e^{i alpha arg z}, z = sign 2a + ib."""
    return np.exp(1j * alpha * np.angle(sign * 2.0 * a + 1j * b))


def _factor(n, m, lam, y, eta):
    """The 1-d factor I(n, m, a, b) at the points (y, eta) (broadcast)."""
    a, b, rho2 = _scaled_coords(lam, y, eta)
    alpha, k = abs(n - m), min(n, m)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    val = _laguerre_sum(alpha, coeffs, rho2)
    return val * _phase(alpha, a, b, 1.0 if n >= m else -1.0) if alpha else val


def wigner_eval(n, m, lam, Y):
    """W(n, m, lam, Y): product of 1-d factors over the coordinates.

    Parameters
    ----------
    n, m : multi-indices (sequences of int, length d)
    lam : nonzero float
    Y : array_like, shape (2 d,) or (..., 2 d); layout (y_1..y_d, eta_1..eta_d)
    """
    n = tuple(int(v) for v in n)
    m = tuple(int(v) for v in m)
    d = len(n)
    if len(m) != d:
        raise ValueError("index lengths differ")
    Y = np.atleast_1d(np.asarray(Y, dtype=float))
    scalar = Y.ndim == 1
    pts = Y.reshape(-1, 2 * d)
    val = np.ones(pts.shape[0], dtype=complex)
    for j in range(d):
        val = val * _factor(n[j], m[j], lam, pts[:, j], pts[:, d + j])
    if scalar:
        return complex(val[0])
    return val.reshape(Y.shape[:-1])


def wigner_conj_grid(n, m, lam, y_axis, eta_axis):
    """conj(W)(n, m, lam, .) on a tensor (y, eta) grid, d = 1 factor.

    Returns an (len(y_axis), len(eta_axis)) array; used by grid quadratures
    of the transform.
    """
    y = np.asarray(y_axis, dtype=float)[:, None]
    eta = np.asarray(eta_axis, dtype=float)[None, :]
    return np.conj(_factor(n, m, lam, y, eta))


def wigner_series_radial(bands, lam, r2):
    """The radial channels of sum_{n, m} theta_nm W(n, m, lam, Y), d = 1.

    With k = m - n, j = min(n, m) and phi = atan2(eta, y) the symbol is

        W(n, m, lam, Y) = c_k ell_j^{|k|}(2 |lam| |Y|^2) e^{-i k sgn(lam) phi},

    c_k = (-1)^k for k > 0 and 1 otherwise, so a sum banded to |k| <= B is
    sum_k chi_k(|Y|^2) e^{-i k sgn(lam) phi}.  ``bands[B + k, j]`` holds
    theta_nm of the pair (k, j), with shape (2B + 1, K + 1) + lam.shape
    for a 1-d array ``lam``; one recurrence per |k| serves every lambda and
    both signs of k.  Returns chi, shape lam.shape + (2B + 1,) + r2.shape.
    """
    lam = np.asarray(lam, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    if np.any(lam == 0):
        raise ValueError("lam must be nonzero")
    bands = np.asarray(bands)
    B = (len(bands) - 1) // 2
    spread = (1,) * r2.ndim
    x = 2.0 * np.abs(lam).reshape(lam.shape + spread) * r2
    chi = np.empty((2 * B + 1,) + x.shape, dtype=np.result_type(bands, float))
    chi[B] = _laguerre_sum(0, bands[B].reshape(bands[B].shape + spread), x)
    for alpha in range(1, B + 1):
        pair = bands[[B - alpha, B + alpha]].swapaxes(0, 1)       # (K + 1, 2) + lam.shape
        chi[[B - alpha, B + alpha]] = _laguerre_sum(alpha, pair.reshape(pair.shape + spread), x)
        chi[B + alpha] *= (-1.0) ** alpha
    return np.moveaxis(chi, 0, lam.ndim)


# i^j for j mod 4, exact
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def wigner_series_dense(rows, lam, y_axis, eta_axis):
    """sum_{n, m} rows[n, m] W(n, m, lam, .) on a tensor (y, eta) grid for a
    square ``rows``, d = 1, through the 45-degree rotation of the Hermite
    pairs.

    With a = sqrt|lam| y and b = 2 sgn(lam) sqrt|lam| eta the slice is

        sqrt(pi) H_a^T A^T H_b,   A[N-k, k] = i^{N-k} sum_n D_N[k, n] rows[n, N-n],

    H_a = h_0..h_{2K}(sqrt2 a) and H_b = h_0..h_{2K}(b / sqrt2) for
    K = len(rows) - 1, whatever the band.  The blocks D_N reach N = 2K.
    ``lam`` may be an array: ``rows`` then has shape (K + 1, K + 1) +
    lam.shape, one square per lambda, and every lambda shares one loop over
    N, two Hermite row evaluations and one stacked GEMM pair.  Returns an
    array of shape lam.shape + (len(y_axis), len(eta_axis)).
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0):
        raise ValueError("lam must be nonzero")
    rows = np.asarray(rows)
    top = 2 * (rows.shape[0] - 1)
    lam_col = lam.reshape(-1, 1)
    root = np.sqrt(np.abs(lam_col))
    a = root * np.asarray(y_axis, dtype=float)                                 # (L, y)
    b = 2.0 * np.copysign(root, lam_col) * np.asarray(eta_axis, dtype=float)   # (L, eta)
    # H_a^T A^T for every lambda: the real rows against the real view of A^T
    h_a = hermite_rows(top, math.sqrt(2.0) * a).transpose(1, 2, 0)             # (L, y, q)
    left = h_a @ _dense_coefficients(rows.reshape(rows.shape[:2] + (-1,))).view(float)
    h_b = hermite_rows(top, b / math.sqrt(2.0)).transpose(1, 0, 2)             # (L, p, eta)
    out = left.view(complex) @ h_b
    return out.reshape(lam.shape + out.shape[1:])


def _dense_coefficients(rows):
    """sqrt(pi) A^T of :func:`wigner_series_dense` for each square
    rows[:, :, l], stacked on the first axis: entry [l, k, N - k] is
    sqrt(pi) i^{N-k} sum_n D_N[k, n] rows[n, N-n, l], one loop over N for
    every lambda."""
    K = rows.shape[0] - 1
    a_t = np.zeros((rows.shape[2], 2 * K + 1, 2 * K + 1), dtype=complex)
    for N in range(2 * K + 1):
        n = np.arange(max(0, N - K), min(N, K) + 1)
        k = np.arange(N + 1)
        a_t[:, k, N - k] = (_rotation_block(N)[:, n] @ rows[n, N - n]).T
    a_t *= math.sqrt(math.pi) * _I_POWERS[np.arange(2 * K + 1) % 4]
    return a_t


# ---- boundary kernel -------------------------------------------------------

def boundary_kernel(xdot, k, Y):
    """Boundary kernel K_d(x., k, Y), the lam -> 0 limit of the symbol.

    ``xdot`` and ``k`` are length-d sequences; all components of xdot must
    share one strict sign, except for the distinguished origin (all zero)
    where the kernel degenerates to the Kronecker delta in k.  ``Y`` has
    layout (y_1..y_d, eta_1..eta_d) with optional leading batch axes.
    """
    xdot = tuple(float(v) for v in xdot)
    k = tuple(int(v) for v in k)
    d = len(xdot)
    if len(k) != d:
        raise ValueError("xdot and k must share length")
    signs = set(np.sign(xdot))
    if signs != {0.0} and (0.0 in signs or len(signs) > 1):
        raise ValueError("boundary point components must share one strict sign")
    Y = np.atleast_1d(np.asarray(Y, dtype=float))
    scalar = Y.ndim == 1
    pts = Y.reshape(-1, 2 * d)
    val = np.full(pts.shape[0], 1.0 + 0j if signs != {0.0} or not any(k) else 0j)
    if signs != {0.0}:
        for j in range(d):
            y, eta = pts[:, j], pts[:, d + j]
            phi = np.arctan2(math.copysign(1.0, xdot[j]) * eta, y)
            radius = 2.0 * math.sqrt(abs(xdot[j])) * np.hypot(y, eta)
            val = val * ((-1.0) ** k[j] * np.exp(-1j * k[j] * phi) * jv(k[j], radius))
    if scalar:
        return complex(val[0])
    return val.reshape(Y.shape[:-1])
