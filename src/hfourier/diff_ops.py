"""Discrete calculus on the frequency set.

All operators act through finite combinations of values at the index
shifts (n +- e_j, m +- e_j, lam) and broadcast like frequency functions
(index arrays of shape S + (d,), lam broadcasting against S).  Where a
shifted term's square-root coefficient vanishes, its index stays in place
instead of going negative, so the term adds zero and no invalid index is
ever evaluated.  The
frequency Laplacian divides by 2|lam| while the lambda-derivative
operator divides by the signed 2 lam; both are kept exactly as defined.
"""

import functools

import numpy as np

from .freq_space import FreqFunction, index_arrays

__all__ = [
    "delta_hat",
    "dlambda_hat",
    "sigma0_hat",
    "mhat",
    "ladder_freq",
    "lift",
]


def delta_hat(theta, n, m, lam):
    """Frequency Laplacian: second-difference combination across index shifts."""
    n, m, lam = index_arrays(n, m, lam)
    d = n.shape[-1]
    val = -(n.sum(axis=-1) + m.sum(axis=-1) + d) * theta(n, m, lam)
    for j in range(d):
        e = np.eye(d, dtype=int)[j]
        up = np.sqrt((n[..., j] + 1.0) * (m[..., j] + 1.0))
        down = np.sqrt((n[..., j] * m[..., j]).astype(float))
        lo = e * (down > 0)[..., None]  # stays put where the coefficient vanishes
        val = val + up * theta(n + e, m + e, lam) + down * theta(n - lo, m - lo, lam)
    return val / (2.0 * np.abs(lam))


def dlambda_hat(theta, n, m, lam):
    """Lambda derivative: d/dlam plus signed index-shift corrections."""
    n, m, lam = index_arrays(n, m, lam)
    d = n.shape[-1]
    val = theta.dlam(n, m, lam) + (d / (2.0 * lam)) * theta(n, m, lam)
    acc = 0.0
    for j in range(d):
        e = np.eye(d, dtype=int)[j]
        down = np.sqrt((n[..., j] * m[..., j]).astype(float))
        lo = e * (down > 0)[..., None]  # stays put where the coefficient vanishes
        acc = (acc + down * theta(n - lo, m - lo, lam)
               - np.sqrt((n[..., j] + 1.0) * (m[..., j] + 1.0)) * theta(n + e, m + e, lam))
    return val + acc / (2.0 * lam)


def sigma0_hat(theta, n, m, lam):
    """Signed-frequency difference quotient linking lam > 0 and lam < 0."""
    n, m, lam = index_arrays(n, m, lam)
    parity = (-1.0) ** (n.sum(axis=-1) + m.sum(axis=-1))
    return (theta(n, m, lam) - parity * theta(m, n, -lam)) / lam


def mhat(theta, n, m, lam):
    """Diagonal multiplier 4 |lam| (2|m| + d), the sub-Laplacian symbol."""
    n, m, lam = index_arrays(n, m, lam)
    d = n.shape[-1]
    return 4.0 * np.abs(lam) * (2.0 * m.sum(axis=-1) + d) * theta(n, m, lam)


def _mhat_pm(theta, j, sign, n, m, lam):
    """Shared index shifts of the horizontal-field images: the raising
    coefficient on m + e_j and ``sign`` times the lowering one on m - e_j."""
    e = np.eye(n.shape[-1], dtype=int)[j]
    return (np.sqrt(2.0 * m[..., j] + 2.0) * theta(n, m + e, lam)
            + sign * np.sqrt(2.0 * m[..., j]) * theta(n, np.maximum(m - e, 0), lam))


def _dhat(theta, j, sign, n, m, lam):
    e = np.eye(n.shape[-1], dtype=int)[j]
    root2 = 2.0 * np.sqrt(np.abs(lam))
    pos = (np.sqrt(2.0 * m[..., j] + 2.0) * theta(n, m + e, lam) * (-1.0)
           + np.sqrt(2.0 * n[..., j]) * theta(np.maximum(n - e, 0), m, lam))
    neg = (np.sqrt(2.0 * n[..., j] + 2.0) * theta(n + e, m, lam)
           - np.sqrt(2.0 * m[..., j]) * theta(n, np.maximum(m - e, 0), lam))
    pick_pos = lam > 0 if sign > 0 else lam < 0
    return np.where(pick_pos, pos, neg) / root2


# how far past the support of theta each ladder kind reaches, as the
# widening of (band, box): the shifted kinds move one of n, m by one
_LADDER_REACH = {"mhat": (0, 0), "mhat_plus": (1, 1), "mhat_minus": (1, 1),
                 "dhat_plus": (1, 1), "dhat_minus": (1, 1)}


def ladder_freq(kind, theta, n, m, lam, j=0):
    """Ladder-type frequency multipliers.

    ``mhat`` is the diagonal sub-Laplacian symbol; ``mhat_plus`` /
    ``mhat_minus`` are the images of the left-invariant horizontal fields;
    ``dhat_plus`` / ``dhat_minus`` (images of multiplication by
    y_j +- i eta_j) select their index-shift branch by the sign of lam.
    """
    if kind not in _LADDER_REACH:
        raise ValueError(f"unknown multiplier {kind!r}")
    n, m, lam = index_arrays(n, m, lam)
    if kind == "mhat":
        return mhat(theta, n, m, lam)
    if kind == "mhat_plus":
        return np.sqrt(np.abs(lam)) * _mhat_pm(theta, j, -1.0, n, m, lam)
    if kind == "mhat_minus":
        return (1j * lam / np.sqrt(np.abs(lam))) * _mhat_pm(theta, j, 1.0, n, m, lam)
    if kind == "dhat_plus":
        return _dhat(theta, j, +1, n, m, lam)
    return _dhat(theta, j, -1, n, m, lam)


# the widening of (band, box) by each operator: delta_hat and dlambda_hat
# shift n and m together, and their down-shift reaches one index past the
# box; sigma0_hat swaps n and m, and mhat multiplies in place
_REACH = {delta_hat: (0, 1), dlambda_hat: (0, 1), sigma0_hat: (0, 0), mhat: (0, 0)}


def lift(op, theta, **kw):
    """Wrap an operator application as a new FreqFunction.

    The lifted function declares the band and box of theta widened by the
    reach of ``op`` (one of this module's operators, or ``ladder_freq``
    with its kind bound by ``functools.partial``); it declares neither for
    any other operator.  Its lambda-derivative falls back to the
    sign-preserving finite difference of the base class.
    """

    def interior(n, m, lam):
        return op(theta, n, m, lam, **kw)

    if isinstance(op, functools.partial) and op.func is ladder_freq:
        reach = _LADDER_REACH.get(op.args[0])
    else:
        reach = _REACH.get(op)
    band = box = None
    if reach is not None:
        band = None if theta.band is None else theta.band + reach[0]
        box = None if theta.box is None else theta.box + reach[1]
    label = getattr(op, "__name__", "op") + ":" + theta.label
    return FreqFunction(interior, d=theta.d, band=band, box=box, label=label)
