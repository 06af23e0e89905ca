"""Metric-measure structure of the frequency set and its completion.

Interior points are (n, m, lam) with n, m in N^d and lam != 0; the
completion adds boundary points (x., k) with x. in (R_-)^d u (R_+)^d and
k in Z^d (componentwise one strict sign, plus the distinguished origin).
The distance is

    interior-interior : |lam(n+m) - lam'(n'+m')|_1 + |(m-n)-(m'-n')|_1 + |lam-lam'|
    interior-boundary : |lam(n+m) - x.|_1 + |m-n-k|_1 + |lam|
    boundary-boundary : |x. - x.'|_1 + |k - k'|_1

and integration against the natural measure is the (n, m)-sum of
|lam|^d dlam integrals.  Every truncated sum returns a value together
with a tail estimate.

Frequency functions evaluate whole index arrays at once: n and m have
shape S + (d,), lam broadcasts against S, and the result has the
broadcast shape.  Boundary values follow the same contract, with x. and k
of shape S + (d,).  ``band`` (largest |m - n|; 0 diagonal, None dense)
and ``box`` (largest n_j, m_j; None uncapped) describe the support: every
sum, product and pairing takes its index range from them, not from a
caller, and evaluates theta on whole arrays or blocks of them.
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

__all__ = [
    "FreqPoint",
    "BoundaryPoint",
    "FreqFunction",
    "LambdaGrid",
    "IntegralResult",
    "distance",
    "integrate",
    "l1m_norm",
    "multi_indices",
    "box_pairs",
    "index_arrays",
    "one_plus_weight",
    "shell_tail",
    "simpson_log_weights",
    "gauss_legendre",
    "sqrt_richardson",
]


# ---- points ---------------------------------------------------------------

@dataclass(frozen=True)
class FreqPoint:
    """Interior frequency point (n, m, lam), lam != 0."""

    n: tuple
    m: tuple
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        if len(self.n) != len(self.m):
            raise ValueError("index lengths differ")
        if any(v < 0 for v in self.n + self.m):
            raise ValueError("indices must be nonnegative")
        if self.lam == 0:
            raise ValueError("lam must be nonzero")

    @property
    def d(self):
        return len(self.n)


@dataclass(frozen=True)
class BoundaryPoint:
    """Boundary point (x., k); all x.-components share one strict sign.

    The distinguished origin (all components zero, k = 0) is admitted as
    the closure point of the boundary half-lines.
    """

    xdot: tuple
    k: tuple

    def __post_init__(self):
        object.__setattr__(self, "xdot", tuple(float(v) for v in self.xdot))
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if len(self.xdot) != len(self.k):
            raise ValueError("xdot and k lengths differ")
        signs = {v > 0 for v in self.xdot if v != 0}
        if any(v == 0 for v in self.xdot):
            if any(v != 0 for v in self.xdot) or any(self.k):
                raise ValueError("only the distinguished origin may have zero components")
        elif len(signs) > 1:
            raise ValueError("xdot components must share one strict sign")

    @property
    def d(self):
        return len(self.xdot)

    @property
    def is_origin(self):
        return all(v == 0 for v in self.xdot)


def _l1(v):
    return float(np.abs(np.asarray(v, dtype=float)).sum())


def distance(p, q):
    """Extended metric on the completed frequency set (all three branches)."""
    pi = isinstance(p, FreqPoint)
    qi = isinstance(q, FreqPoint)
    if pi and qi:
        a = np.asarray(p.n) + np.asarray(p.m)
        b = np.asarray(q.n) + np.asarray(q.m)
        return (
            _l1(p.lam * a - q.lam * b)
            + _l1((np.asarray(p.m) - np.asarray(p.n)) - (np.asarray(q.m) - np.asarray(q.n)))
            + abs(p.lam - q.lam)
        )
    if pi and not qi:
        return distance(q, p)
    if not pi and qi:
        a = np.asarray(q.n) + np.asarray(q.m)
        return (
            _l1(q.lam * a - np.asarray(p.xdot))
            + _l1(np.asarray(q.m) - np.asarray(q.n) - np.asarray(p.k))
            + abs(q.lam)
        )
    return _l1(np.asarray(p.xdot) - np.asarray(q.xdot)) + _l1(np.asarray(p.k) - np.asarray(q.k))


# ---- typed fields -----------------------------------------------------------

def _number(kind):
    return lambda value: isinstance(value, kind) and not isinstance(value, bool)


def _triple(ok):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(ok, v))


_INTEGER = (_number(numbers.Integral), "an integer")
_REAL = (_number(numbers.Real), "a real number")
# what each field of LambdaGrid and of the config dataclasses takes (a bool is no number)
_FIELD_TYPES = {"d": _INTEGER, "n_max": _INTEGER, "seed": _INTEGER, "points_per_sign": _INTEGER,
                "lambda_min": _REAL, "lambda_max": _REAL,
                "extents": (_triple(_REAL[0]), "a list of 3 real numbers"),
                "points": (_triple(_INTEGER[0]), "a list of 3 integers")}


def _check_types(values, where=""):
    """Refuse, naming ``where`` + its key, the first entry of the mapping
    ``values`` that its key in _FIELD_TYPES does not take."""
    for key, value in values.items():
        ok, want = _FIELD_TYPES.get(key, (None, None))
        if ok is not None and not ok(value):
            raise ValueError(f"{where + key!r} must be {want}, got {value!r}")


# ---- lambda grid ----------------------------------------------------------

def simpson_log_weights(count, step):
    """Weights of composite Simpson on a uniform grid of ``count`` points.

    Each pair of intervals adds step/3, 4 step/3, step/3 to its three
    points (three strided slices, so an interior even point collects
    step/3 twice).  The possibly left-over last interval is integrated by
    the quadratic through the final three points, keeping higher-order
    accuracy.
    """
    w = np.zeros(count)
    if count == 2:
        return np.array([0.5, 0.5]) * step
    end = 2 * ((count - 1) // 2)
    w[0:end:2] += step / 3.0
    w[1:end:2] += 4.0 * step / 3.0
    w[2:end + 1:2] += step / 3.0
    if (count - 1) % 2 == 1:
        w[-3] += -step / 12.0
        w[-2] += 8.0 * step / 12.0
        w[-1] += 5.0 * step / 12.0
    return w


@lru_cache(maxsize=None)
def _legendre(q):
    return np.polynomial.legendre.leggauss(q)


def gauss_legendre(edges, q):
    """Composite Gauss-Legendre rule: the q-point rule on each panel
    between consecutive ``edges``.  Returns (nodes, weights), panel by
    panel in the order of ``edges``; a stack of edge rows (..., E) gives
    one rule per row, shape (..., (E - 1) q)."""
    xi, om = _legendre(q)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * np.diff(edges)
    shape = edges.shape[:-1] + (-1,)
    nodes = mid[..., None] + half[..., None] * xi
    return nodes.reshape(shape), (half[..., None] * om).reshape(shape)


@dataclass
class LambdaGrid:
    """Signed geometric grid on +-[lambda_min, lambda_max], zero excluded.

    ``lam`` is ascending (negative branch then positive); ``weights``
    integrate smooth functions against plain dlam over the covered range.
    """

    lambda_min: float = 1e-4
    lambda_max: float = 16.0
    points_per_sign: int = 160

    def __post_init__(self):
        _check_types(vars(self))
        if not (0 < self.lambda_min < self.lambda_max < math.inf):
            raise ValueError("need finite 0 < lambda_min < lambda_max")
        if self.points_per_sign < 2:
            raise ValueError("points_per_sign must be >= 2")
        P = self.points_per_sign
        t = np.linspace(math.log(self.lambda_min), math.log(self.lambda_max), P)
        pos = np.exp(t)
        wt = simpson_log_weights(P, t[1] - t[0]) * pos  # dlam = lam dt
        self.lam = np.concatenate([-pos[::-1], pos])
        self.weights = np.concatenate([wt[::-1], wt])

    @property
    def ratio(self):
        return (self.lambda_max / self.lambda_min) ** (1.0 / (self.points_per_sign - 1))

    def to_json(self):
        return json.dumps(
            {
                "lambda_min": self.lambda_min,
                "lambda_max": self.lambda_max,
                "points_per_sign": self.points_per_sign,
                "ratio": self.ratio,
            },
            sort_keys=True,
        )


# ---- frequency functions ---------------------------------------------------

class FreqFunction:
    """Complex function on the frequency set, with optional extras.

    Every evaluation broadcasts: ``n`` and ``m`` are integer arrays of shape
    S + (d,) (a multi-index tuple is the case S = ()), ``lam`` is a float
    array that broadcasts against S, and the result is a complex array of
    the broadcast shape.

    Parameters
    ----------
    interior : callable (n, m, lam) -> complex array
        Follows the broadcast contract above.
    dlam : callable, optional
        Analytic lambda-derivative of the same signature.
    boundary : callable (xdot, k) -> complex array, optional
        Continuous extension to the boundary points (x., k).  ``xdot`` is
        a float and ``k`` an integer array, each of shape S + (d,), and the
        result has their broadcast shape S.
    band : int or None
        Largest |m - n| (per coordinate) carrying support; None = dense.
        Sums run over this band only.
    box : int or None
        Largest n_j, m_j carrying support (a table's n_max); None = no cap.
    diagonal : bool
        Shorthand for ``band=0``.
    label : str
        Display name; no computation reads it.
    """

    def __init__(self, interior, d=1, dlam=None, boundary=None,
                 diagonal=False, band=None, box=None, label=""):
        self._interior = interior
        self.d = d
        self._dlam = dlam
        self._boundary = boundary
        self.band = 0 if diagonal else band
        self.box = box
        self.label = label

    def __call__(self, n, m, lam):
        return np.asarray(self._interior(*index_arrays(n, m, lam)), dtype=complex)

    def dlam(self, n, m, lam):
        """d theta / d lam, analytic when available, else a sign-preserving
        centered difference with step min(1e-4, |lam|/8)."""
        n, m, lam = index_arrays(n, m, lam)
        if self._dlam is not None:
            return np.asarray(self._dlam(n, m, lam), dtype=complex)
        h = np.minimum(1e-4, np.abs(lam) / 8.0)
        return (self(n, m, lam + h) - self(n, m, lam - h)) / (2.0 * h)

    @property
    def has_boundary(self):
        return self._boundary is not None

    def at_boundary(self, xdot, k):
        """theta(x., k) over arrays of shape S + (d,); a tuple pair is S = ()."""
        if self._boundary is None:
            raise ValueError("no boundary extension attached")
        xdot, k = np.asarray(xdot, dtype=float), np.asarray(k, dtype=int)
        return np.asarray(self._boundary(xdot, k), dtype=complex)

    def value_at_origin(self, grid):
        """theta(0^): boundary evaluator when present, else Richardson
        extrapolation in sqrt(lam) of theta(0, 0, +-lam) at lam =
        ``grid.lambda_min`` and four times it."""
        if self._boundary is not None:
            return complex(self.at_boundary((0.0,) * self.d, (0,) * self.d))
        zero = np.zeros(self.d, dtype=int)
        lam1 = grid.lambda_min
        lam2 = 4.0 * lam1
        v = self(zero, zero, np.array([lam1, -lam1, lam2, -lam2]))
        v1 = 0.5 * (v[0] + v[1])
        v2 = 0.5 * (v[2] + v[3])
        return complex(sqrt_richardson(lam1, v1, lam2, v2))


def sqrt_richardson(lam1, v1, lam2, v2):
    """Limit at lam -> 0 of a + b sqrt(lam) through (lam1, v1) and (lam2, v2):
    one Richardson step in sqrt(lam).  ``v1`` and ``v2`` may be arrays."""
    r1, r2 = math.sqrt(lam1), math.sqrt(lam2)
    return (r2 * v1 - r1 * v2) / (r2 - r1)


def index_arrays(n, m, lam):
    """(n, m, lam) as the integer and float arrays frequency functions take."""
    return np.asarray(n, dtype=int), np.asarray(m, dtype=int), np.asarray(lam, dtype=float)


def multi_indices(d, n_max):
    """All multi-indices of length d with max entry <= n_max."""
    return [tuple(t) for t in product(range(n_max + 1), repeat=d)]


def box_pairs(d, n_max, band=None):
    """Index pairs (n, m) of the box [0, n_max]^d with |m - n|_inf <= band
    (every pair when ``band`` is None), n-major: two (K, d) integer arrays."""
    idx = np.array(multi_indices(d, n_max)).reshape(-1, d)[:, None, :]
    reach = n_max if band is None else band
    offsets = np.array(list(product(range(-reach, reach + 1), repeat=d)))
    n, m = np.broadcast_arrays(idx, idx + offsets[None])
    keep = ((m >= 0) & (m <= n_max)).all(-1)
    return n[keep], m[keep]


def shell_tail(prev, last, n, prev_n=None):
    """Tail sum_{j > n} s_j of index-shell sums that decay like a power.

    The power law s_j ~ C j^-p is fitted to two shells, ``prev`` at
    ``prev_n`` (default n - 1) and ``last`` at n, giving last * n / (p - 1),
    which is also the integral of the fit beyond n.  The tail is 0 after
    an empty shell and inf unless the shells fall faster than j^-1.05.
    Broadcasts over arrays of shells.
    """
    prev, last, n = (np.asarray(v, dtype=float) for v in (prev, last, n))
    prev_n = n - 1.0 if prev_n is None else np.asarray(prev_n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.log(prev / last) / np.log(n / prev_n)
        fit = last * n / (p - 1.0)
    return np.where(last == 0.0, 0.0, np.where((last < prev) & (p > 1.05), fit, math.inf))


@dataclass
class IntegralResult:
    value: complex
    tail_bound: float

    def __iter__(self):
        yield self.value
        yield self.tail_bound


def _as_eval(theta):
    if isinstance(theta, FreqFunction):
        return theta
    raise TypeError("expected a FreqFunction")


def _index_box(theta):
    """The index cap of a sum over theta: the box theta declares; refused,
    naming its label, when theta declares none."""
    if theta.box is None:
        raise ValueError(f"theta {theta.label!r} declares no index box")
    return theta.box


def _k_reach(theta):
    """Largest |m - n| (per coordinate), and |k| at the boundary, where theta
    can be nonzero: its band, else its index box; refused if it has neither."""
    if theta.band is not None:
        return theta.band
    if theta.box is None:
        raise ValueError(f"theta {theta.label!r} declares neither a band nor an index box")
    return theta.box


def integrate(theta, grid):
    """Truncated integral of theta against the frequency measure.

    Sums theta(n, m, lam) |lam|^d over multi-indices with max entry at
    most the box theta declares (a theta that declares none is refused
    before it is called), within its support band, and over the lambda
    grid.  Returns an :class:`IntegralResult` carrying a tail estimate
    built from the outermost index shell and the uncovered lambda ranges
    (an estimate, not a certified bound).
    """
    fn = _as_eval(theta)
    d = fn.d
    n_max = _index_box(fn)
    lam = grid.lam
    meas = np.abs(lam) ** d * grid.weights
    P = grid.points_per_sign

    n, m = box_pairs(d, n_max, fn.band)
    rows = fn(n[:, None], m[:, None], lam)              # (pairs, lambda)
    total = np.sum((rows * meas).sum(axis=1))
    absrows = np.abs(rows)
    shell = np.maximum(n.max(axis=-1), m.max(axis=-1))
    shell_abs = np.bincount(shell, weights=(absrows * np.abs(meas)).sum(axis=1),
                            minlength=n_max + 1)
    # mass of the uncovered strip |lam| < lambda_min, |theta| frozen at the edge
    edge_small = np.sum((absrows[:, P - 1] + absrows[:, P]) * grid.lambda_min ** (d + 1) / (d + 1))
    # geometric estimate beyond lambda_max
    a_last, a_prev = absrows[:, -1], absrows[:, -2]
    q = np.divide(a_last, a_prev, out=np.zeros_like(a_last),
                  where=(a_prev > 0) & (a_last < 0.9 * a_prev))
    step = lam[-1] - lam[-2]
    edge_large = np.sum(2.0 * a_last * abs(lam[-1]) ** d * step * q / (1.0 - q))

    tail_n = math.inf
    if n_max >= 2:
        s_prev, s_last = shell_abs[n_max - 1], shell_abs[n_max]
        if s_prev > 0 and 0 < s_last < 0.95 * s_prev:
            q = s_last / s_prev
            tail_n = s_last * q / (1.0 - q)
        else:
            tail_n = float(shell_tail(s_prev, s_last, n_max))
    return IntegralResult(complex(total), float(tail_n + edge_small + edge_large))


def one_plus_weight(n, m, lam, d):
    """1 + |lam| (|n + m|_1 + d) + |n - m|_1, the decay weight plus one."""
    nm = np.abs(n + m).sum(axis=-1)
    diff = np.abs(n - m).sum(axis=-1)
    return 1.0 + np.abs(lam) * (nm + d) + diff


def l1m_norm(theta, p, grid):
    """Moderate-growth norm: integral of (1 + |lam|(|n+m|+d) + |n-m|)^{-p} |theta|
    over the support theta declares (its box, as in :func:`integrate`)."""
    fn = _as_eval(theta)
    d = fn.d

    def weighted(n, m, lam):
        return one_plus_weight(n, m, lam, d) ** (-p) * np.abs(fn(n, m, lam))

    wrapped = FreqFunction(weighted, d=d, band=fn.band, box=fn.box, label=fn.label)
    return integrate(wrapped, grid)
