"""Physical-space structure of H^d.

Group law on w = (y, eta, s):

    w . w' = (y + y', eta + eta', s + s' + 2<eta, y'> - 2<eta', y>),

with inverse -w and parabolic dilations (Y, s) -> (aY, a^2 s).  The module
also carries group convolution of sampled fields (a sum over Y-lattice
shifts, batched per block of vertical frequencies, where the group law's
twist is an exact phase), the left/right-invariant vector fields, the
sub-Laplacian, weight and multiplication operators, and the vertical
primitive P.
"""

import math

import numpy as np
from scipy.fft import fft, fftfreq, ifft, next_fast_len

from .fields import SampledField

__all__ = [
    "group_mul",
    "group_inverse",
    "dilate",
    "convolve",
    "apply_phys_op",
    "PHYS_OPS",
]


# ---- group law -----------------------------------------------------------

def _split(w, d):
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != 2 * d + 1:
        raise ValueError(f"point length {w.shape[-1]} != 2 d + 1")
    return w[..., :d], w[..., d : 2 * d], w[..., -1]


def group_mul(w1, w2, d=1):
    """Product w1 . w2 in H^d; inputs are arrays (..., 2 d + 1)."""
    y1, e1, s1 = _split(w1, d)
    y2, e2, s2 = _split(w2, d)
    s = s1 + s2 + 2.0 * np.sum(e1 * y2, axis=-1) - 2.0 * np.sum(e2 * y1, axis=-1)
    return np.concatenate(
        [y1 + y2, e1 + e2, s[..., None]], axis=-1
    )


def group_inverse(w):
    return -np.asarray(w, dtype=float)


def dilate(a, w, d=1):
    """Parabolic dilation (Y, s) -> (a Y, a^2 s), a > 0."""
    if a <= 0:
        raise ValueError("dilation parameter must be positive")
    y, e, s = _split(w, d)
    return np.concatenate([a * y, a * e, (a * a * s)[..., None]], axis=-1)


# ---- group convolution ---------------------------------------------------

# vertical frequencies per batched product in `convolve`: bounds the per-block
# twist and padded F; blocks of 16-64 take about the same time on c03's pair
_SIGMA_BLOCK = 32


def convolve(f, g):
    """Group convolution (f * g)(w) = integral f(w . v^{-1}) g(v) dv.

    Riemann sum over the shared Y lattice at each vertical frequency
    sigma.  The Y components of w . v^{-1} land on the lattice; its
    vertical component is s - s' + c with the twist
    c = 2(<eta', y> - <eta, y'>), which after a Fourier transform in s is
    the exact phase exp(i sigma c).  Both operands are zero-padded in s to
    one period P with P h_s > 2(L_f + L_g) + 4 d L_y L_eta, so no twisted
    copy wraps into the output window and f is zero-extended outside its
    box.  The sum runs over the lattice shifts k = y - y' of the flattened
    y multi-index: for one shift and a block of sigma, the eta'-sum of
    F(k, eta - eta') exp(2 i sigma <eta', y>) G(y', eta') is one batched
    product, with F(k, eta - eta') one gather of F's zero-padded eta block
    (Toeplitz at d = 1, block-Toeplitz at d = 2).

    ``f`` and ``g`` must share d, the Y axes and h_s; their s-extents may
    differ.  Returns ``(field, tail)``: the result on the s-axis of
    half-width L_f + L_g at the same h_s, and the L1 mass of the computed
    sum that falls outside that window.
    """
    d = f.d
    hs = f.spacings[-1]
    if (g.d != d or f.samples.shape[:-1] != g.samples.shape[:-1]
            or not np.allclose(f.extents[:2], g.extents[:2])
            or not math.isclose(hs, g.spacings[-1], rel_tol=1e-12)):
        raise ValueError("convolution requires equal Y axes and equal h_s")
    ny, ne = f.points[:2]
    n_out = f.points[-1] + g.points[-1] - 1
    period = next_fast_len(n_out + int(4.0 * d * f.extents[0] * f.extents[1] / hs))
    sigma = 2.0 * np.pi * fftfreq(period, hs)
    # sigma-major views (P, Y, E) of the transforms over flattened y and eta
    F, G = (np.moveaxis(fft(h.samples, period, axis=-1).reshape(ny**d, ne**d, period), -1, 0)
            for h in (f, g))
    yi, ei = (np.indices((n,) * d).reshape(d, -1).T for n in (ny, ne))
    inner = f.y_axis[yi] @ f.eta_axis[ei].T
    # toeplitz[eta', eta] indexes eta - eta' in the padded eta block
    toeplitz = np.ravel_multi_index(np.moveaxis(ei - ei[:, None] + ne - 1, -1, 0),
                                    (2 * ne - 1,) * d)
    # per shift k: the flat y' whose y' + k is on the lattice, and those y
    shifts = []
    for k, o in enumerate(yi - (ny - 1) // 2):
        src = np.flatnonzero(np.all((yi + o >= 0) & (yi + o < ny), axis=1))
        shifts.append((k, src, src + o @ ny ** np.arange(d - 1, -1, -1)))
    pad = [(0, 0)] * 2 + [((ne - 1) // 2,) * 2] * d
    out = np.zeros(F.shape, dtype=complex)
    for lo in range(0, period, _SIGMA_BLOCK):
        blk = slice(lo, lo + _SIGMA_BLOCK)
        twist = np.exp(2j * sigma[blk, None, None] * inner)
        Fb = np.pad(F[blk].reshape(-1, ny**d, *(ne,) * d), pad).reshape(-1, ny**d, (2 * ne - 1)**d)
        for k, src, dst in shifts:
            summed = (twist[:, dst] * G[blk, src]) @ Fb[:, k][..., toeplitz]
            out[blk, dst] += twist[:, src].conj() * summed

    full = np.moveaxis(ifft(out, axis=0, overwrite_x=True), 0, -1)
    full *= f.cell_volume
    tail = float(np.abs(full[..., n_out:]).sum() * f.cell_volume)
    ext = (f.extents[0], f.extents[1], f.extents[2] + g.extents[2])
    # a copy of the window, so the result does not keep the padded period alive
    window = full[..., :n_out].copy().reshape(f.samples.shape[:-1] + (n_out,))
    return SampledField(window, d, ext), tail


# ---- differential / multiplication operators ------------------------------

def _deriv(arr, axis, h):
    """Fourth-order first derivative; one-sided stencils at the edges."""
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[2:-2] = (-a[4:] + 8 * a[3:-1] - 8 * a[1:-3] + a[:-4]) / (12 * h)
    out[0] = (-25 * a[0] + 48 * a[1] - 36 * a[2] + 16 * a[3] - 3 * a[4]) / (12 * h)
    out[1] = (-3 * a[0] - 10 * a[1] + 18 * a[2] - 6 * a[3] + a[4]) / (12 * h)
    out[-2] = (3 * a[-1] + 10 * a[-2] - 18 * a[-3] + 6 * a[-4] - a[-5]) / (12 * h)
    out[-1] = (25 * a[-1] - 48 * a[-2] + 36 * a[-3] - 16 * a[-4] + 3 * a[-5]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def _coord_mesh(fld, block, j):
    # broadcastable coordinate array for y_j (block 0) or eta_j (block 1)
    ax = fld.y_axis if block == 0 else fld.eta_axis
    axis = j if block == 0 else fld.d + j
    shape = [1] * fld.samples.ndim
    shape[axis] = len(ax)
    return ax.reshape(shape)


def _s_mesh(fld):
    shape = [1] * fld.samples.ndim
    shape[-1] = fld.points[-1]
    return fld.s_axis.reshape(shape)


def _field_X(fld, j, sign=+1):
    hy, _, hs = fld.spacings
    eta_j = _coord_mesh(fld, 1, j)
    return _deriv(fld.samples, j, hy) + sign * 2.0 * eta_j * _deriv(fld.samples, fld.samples.ndim - 1, hs)


def _field_Xi(fld, j, sign=+1):
    _, he, hs = fld.spacings
    y_j = _coord_mesh(fld, 0, j)
    return _deriv(fld.samples, fld.d + j, he) - sign * 2.0 * y_j * _deriv(fld.samples, fld.samples.ndim - 1, hs)


def _abs_Y_sq(fld):
    total = 0.0
    for j in range(fld.d):
        total = total + _coord_mesh(fld, 0, j) ** 2 + _coord_mesh(fld, 1, j) ** 2
    return total


def _op_samples(fld, name, j):
    nd = fld.samples.ndim
    hy, he, hs = fld.spacings
    if name == "X":
        return _field_X(fld, j)
    if name == "Xi":
        return _field_Xi(fld, j)
    if name == "Xtilde":
        return _field_X(fld, j, sign=-1)
    if name == "Xitilde":
        return _field_Xi(fld, j, sign=-1)
    if name == "S":
        return _deriv(fld.samples, nd - 1, hs)
    if name == "laplacian":
        total = np.zeros_like(fld.samples)
        for jj in range(fld.d):
            step = SampledField(_field_X(fld, jj), fld.d, fld.extents)
            total = total + _field_X(step, jj)
            step = SampledField(_field_Xi(fld, jj), fld.d, fld.extents)
            total = total + _field_Xi(step, jj)
        return total
    if name == "M2":
        return _abs_Y_sq(fld) * fld.samples
    if name == "M0":
        return -1j * _s_mesh(fld) * fld.samples
    if name == "MH":
        return (_abs_Y_sq(fld) - 1j * _s_mesh(fld)) * fld.samples
    if name == "Mplus":
        return (_coord_mesh(fld, 0, j) + 1j * _coord_mesh(fld, 1, j)) * fld.samples
    if name == "Mminus":
        return (_coord_mesh(fld, 0, j) - 1j * _coord_mesh(fld, 1, j)) * fld.samples
    if name == "P":
        # half the cumulative vertical integral of the odd part,
        # lower limit realized at the bottom of the s-grid
        odd = fld.samples - fld.samples[..., ::-1]
        prim = np.zeros_like(odd)
        prim[..., 1:] = np.cumsum(hs * (odd[..., 1:] + odd[..., :-1]) / 2.0, axis=-1)
        return 0.5 * prim
    raise ValueError(f"unknown operator {name!r}")


PHYS_OPS = (
    "X", "Xi", "S", "Xtilde", "Xitilde", "laplacian",
    "M2", "M0", "MH", "Mplus", "Mminus", "P",
)


def apply_phys_op(op, fld, j=0):
    """Apply a named physical-space operator to a sampled field.

    ``op`` is one of ``PHYS_OPS``; ``j`` selects the coordinate for the
    per-coordinate families (X, Xi, their right-invariant tilde versions,
    and the multiplications by y_j +/- i eta_j).  Derivatives use
    fourth-order centered stencils (one-sided at the box edges); P uses a
    cumulative trapezoid along s.
    """
    if op not in PHYS_OPS:
        raise ValueError(f"unknown operator tag {op!r}")
    if not (0 <= j < fld.d):
        raise ValueError(f"coordinate {j} out of range")
    return SampledField(_op_samples(fld, op, j), fld.d, fld.extents)
