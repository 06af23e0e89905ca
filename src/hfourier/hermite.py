"""Orthonormal Hermite functions from one stable recurrence.

The family used everywhere in this package is the L2(R^d)-orthonormal one:
the ground state carries the constant pi**(-d/4), and the one-dimensional
members obey the normalized three-term recurrence

    h_{k+1}(x) = sqrt(2/(k+1)) * x * h_k(x) - sqrt(k/(k+1)) * h_{k-1}(x),

which is stable for k well into the hundreds.  Multi-dimensional functions
are plain tensor products over the coordinates.  Pairs of them of total
order N turn into each other under a 45-degree rotation of the plane
(:func:`_rotation_block`).
"""

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .config import N_MAX_CAP

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


# every order a table within the config's n_max cap reaches (N <= 128 at
# the cap of 64, about 6 MB), so the forward and the inverse share the
# blocks; callers past the cap get correct blocks but evict each other
@lru_cache(maxsize=2 * N_MAX_CAP + 1)
def _rotation_block(N):
    """Hermite pairs of total order N under the 45-degree rotation.

    Returns the orthogonal (N+1) x (N+1) matrix D with

        h_n((a + c)/sqrt 2) h_{N-n}((a - c)/sqrt 2) = sum_k D[k, n] h_{N-k}(a) h_k(c),

    the Hermite-Gaussian mode-converter coefficients (Beijersbergen et al.,
    Opt. Commun. 96 (1993) 123).  D = exp((pi/4) G) for the antisymmetric
    tridiagonal G with G[j+1, j] = sqrt((j+1)(N-j)).  G is similar, through
    diag(i^j), to i T with T the symmetric tridiagonal of the same
    off-diagonal, whose eigenvalues are the integers -N, -N+2, .., N (Feng et
    al., Phys. Rev. E 92 (2015) 043307).  So D needs one real eigensolve and
    the trigonometric values at those integers: no factorial (they overflow
    past N ~ 170), and orthogonal to rounding at N in the hundreds.

    Blocks are cached and returned read-only, since every caller shares them.
    """
    j = np.arange(N)
    ell, vecs = eigh_tridiagonal(np.zeros(N + 1), np.sqrt((j + 1.0) * (N - j)))
    angle = 0.25 * math.pi * np.round(ell)
    cos_part = (vecs * np.cos(angle)) @ vecs.T
    sin_part = (vecs * np.sin(angle)) @ vecs.T
    p = np.arange(N + 1)
    block = np.choose((p[:, None] - p[None, :]) % 4, [cos_part, -sin_part, -cos_part, sin_part])
    block.flags.writeable = False
    return block
