"""Orthonormal Hermite functions, their rescalings, and the ladder algebra.

The family used everywhere in this package is the L2(R^d)-orthonormal one:
the ground state carries the constant pi**(-d/4), and the one-dimensional
members obey the normalized three-term recurrence

    h_{k+1}(x) = sqrt(2/(k+1)) * x * h_k(x) - sqrt(k/(k+1)) * h_{k-1}(x),

which is stable for k well into the hundreds.  Multi-dimensional functions
are plain tensor products over the coordinates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoeffSeq",
    "eval_hermite",
    "eval_rescaled",
    "hermite_rows",
    "hermite_selected",
    "ladder_apply",
    "quadrature_rule",
]

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


def eval_hermite(n, x):
    """Evaluate the orthonormal d-dimensional Hermite function H_n at x.

    Parameters
    ----------
    n : sequence of int
        Multi-index of length d.
    x : array_like
        Either a point of R^d (shape ``(d,)``) or a batch ``(..., d)``.
    """
    n = tuple(int(v) for v in n)
    if any(v < 0 for v in n):
        raise ValueError("multi-index entries must be nonnegative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(n)
    if x.shape[-1] != d:
        raise ValueError(f"point dimension {x.shape[-1]} != index length {d}")
    val = 1.0
    for j, nj in enumerate(n):
        rows = hermite_selected([nj], x[..., j])
        val = val * rows[nj]
    return val if np.ndim(val) else float(val)


def eval_rescaled(n, lam, x):
    """Evaluate the lambda-rescaled function |lam|^(d/4) H_n(|lam|^(1/2) x).

    The dependence is through |lam| only; lam = 0 is rejected.
    """
    if lam == 0:
        raise ValueError("rescaling parameter must be nonzero")
    n = tuple(int(v) for v in n)
    d = len(n)
    root = math.sqrt(abs(lam))
    return abs(lam) ** (d / 4.0) * eval_hermite(n, np.asarray(x, dtype=float) * root)


@dataclass
class CoeffSeq:
    """Finite Hermite expansion sum_n values[n] * H_n, capped at ``n_max``.

    ``truncated`` records whether any ladder application pushed weight
    above the cap (the out-of-range coefficients are dropped).
    """

    values: dict = field(default_factory=dict)
    n_max: int = 32
    truncated: bool = False

    def __post_init__(self):
        for idx in self.values:
            if max(idx, default=0) > self.n_max:
                raise ValueError(f"index {idx} exceeds cap {self.n_max}")

    @property
    def dim(self):
        for idx in self.values:
            return len(idx)
        return 1

    def evaluate(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        total = np.zeros(x.shape[:-1], dtype=complex)
        for idx, c in self.values.items():
            total = total + c * eval_hermite(idx, x)
        return total


def _shift(idx, j, step):
    lst = list(idx)
    lst[j] += step
    return tuple(lst)


def ladder_apply(kind, j, coeffs):
    """Apply a ladder-type operator to a coefficient sequence.

    ``kind`` is one of ``creation``, ``annihilation``, ``position``,
    ``derivative`` and ``j`` the (0-based) coordinate it acts on.  The
    index shifts follow

        annihilation_j H_n = sqrt(2 n_j)     H_{n - e_j}
        creation_j     H_n = sqrt(2 n_j + 2) H_{n + e_j}

    with position = (annihilation + creation)/2 and derivative =
    (annihilation - creation)/2.  Coefficients pushed above the cap are
    dropped and flagged on the result.
    """
    out = {}
    truncated = coeffs.truncated

    def add(idx, c):
        nonlocal truncated
        if abs(c) == 0.0:
            return
        if max(idx) > coeffs.n_max:
            truncated = True
            return
        out[idx] = out.get(idx, 0.0) + c

    for idx, c in coeffs.values.items():
        if j >= len(idx):
            raise ValueError(f"coordinate {j} out of range for dimension {len(idx)}")
        nj = idx[j]
        down = math.sqrt(2.0 * nj)  # vanishes at nj = 0, term dropped
        up = math.sqrt(2.0 * nj + 2.0)
        if kind == "annihilation":
            if nj >= 1:
                add(_shift(idx, j, -1), c * down)
        elif kind == "creation":
            add(_shift(idx, j, +1), c * up)
        elif kind == "position":
            if nj >= 1:
                add(_shift(idx, j, -1), 0.5 * c * down)
            add(_shift(idx, j, +1), 0.5 * c * up)
        elif kind == "derivative":
            if nj >= 1:
                add(_shift(idx, j, -1), 0.5 * c * down)
            add(_shift(idx, j, +1), -0.5 * c * up)
        else:
            raise ValueError(f"unknown ladder kind {kind!r}")
    return CoeffSeq(values=out, n_max=coeffs.n_max, truncated=truncated)


def quadrature_rule(order, scale=1.0):
    """Gauss nodes and weights for the weight exp(-scale * u^2) on R.

    Exact for polynomials up to degree 2*order - 1.  Backed by the
    Gauss-Hermite rule with nodes and weights rescaled by sqrt(scale).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    root = math.sqrt(scale)
    return nodes / root, weights / root
