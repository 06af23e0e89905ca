"""Orthonormal Hermite functions from one stable recurrence.

The family used everywhere in this package is the L2(R^d)-orthonormal one:
the ground state carries the constant pi**(-d/4), and the one-dimensional
members obey the normalized three-term recurrence

    h_{k+1}(x) = sqrt(2/(k+1)) * x * h_k(x) - sqrt(k/(k+1)) * h_{k-1}(x),

which is stable for k well into the hundreds.  Multi-dimensional functions
are plain tensor products over the coordinates.
"""

import math

import numpy as np

__all__ = ["hermite_rows", "hermite_selected"]

_GROUND = math.pi ** -0.25


def hermite_rows(n_max, x):
    """Evaluate h_0 .. h_{n_max} (1-d, orthonormal) at the points ``x``.

    Parameters
    ----------
    n_max : int
        Largest index to evaluate.
    x : array_like
        Evaluation points, any shape.

    Returns
    -------
    ndarray of shape ``(n_max + 1,) + x.shape``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    h0 = _GROUND * np.exp(-0.5 * x * x)
    out[0] = h0
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * h0
    for k in range(1, n_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(
            k / (k + 1.0)
        ) * out[k - 1]
    return out


def hermite_selected(indices, x):
    """Evaluate h_n at ``x`` for the requested 1-d indices only.

    Returns a dict ``{n: ndarray}`` of rows of :func:`hermite_rows`.
    """
    wanted = sorted(set(int(n) for n in indices))
    if not wanted or wanted[0] < 0:
        raise ValueError("indices must be nonnegative")
    rows = hermite_rows(wanted[-1], x)
    return {n: rows[n] for n in wanted}
