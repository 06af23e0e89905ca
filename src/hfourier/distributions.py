"""Tempered distributions on the group and on its frequency set.

A distribution is a finite linear combination of tagged terms.  Physical
side: function-backed, the point mass at the group origin, the constant
one, and g (x) 1 (a function of Y only).  Frequency side: moderate-growth
function-backed, the diagonal trace functional, point mass at the
distinguished boundary origin, finite parts of supercritical diagonal
powers, and densities against the boundary measure.

The boundary measure is normalized as the vague limit of concentrating
frequency profiles:

    <mu, theta> = 2^{-d-1} sum_k ( int_{(R_-)^d} + int_{(R_+)^d} )
                  theta(x., k) dx.

(the half in front of the orthant sum makes lim_{eps -> 0}
iota(psi(./eps)/eps) = mu exact for unit-integral psi; the transform of a
vertical-constant tensor then carries the factor 2 pi).
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np
from scipy.special import j0, j1, jv
from scipy.special import zeta as hurwitz_zeta

from .freq_space import (FreqFunction, IntegralResult, LambdaGrid, _k_reach, box_pairs,
                         gauss_legendre, integrate, shell_tail)
from .wigner import boundary_kernel

__all__ = [
    "Distribution",
    "pair",
    "fourier_distribution",
    "g_hat_boundary",
    "make_f_gamma",
]

_PHYS_KINDS = {"phys_function", "phys_dirac", "phys_one", "phys_g_tensor_one"}
_FREQ_KINDS = {
    "freq_function",
    "freq_identity_sum",
    "freq_dirac_origin",
    "freq_finite_part",
    "freq_boundary_measure",
}


@dataclass
class Distribution:
    """Finite linear combination of tagged terms: [(coeff, kind, payload)]."""

    terms: list
    d: int = 1

    def __post_init__(self):
        sides = set()
        for coeff, kind, payload in self.terms:
            if kind in _PHYS_KINDS:
                sides.add("phys")
            elif kind in _FREQ_KINDS:
                sides.add("freq")
            else:
                raise ValueError(f"unknown distribution kind {kind!r}")
            if kind == "freq_finite_part":
                gamma = float(payload)
                if not (self.d + 1 < gamma < self.d + 1.5):
                    raise ValueError("finite-part exponent must lie in (d+1, d+3/2)")
        if len(sides) > 1:
            raise ValueError("cannot mix physical and frequency terms")
        self.side = sides.pop() if sides else "freq"

    @classmethod
    def single(cls, kind, payload=None, coeff=1.0, d=1):
        return cls([(coeff, kind, payload)], d=d)

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return Distribution(self.terms + other.terms, d=self.d)

    def scaled(self, c):
        return Distribution([(c * a, k, p) for a, k, p in self.terms], d=self.d)


# theta entries (sample x pair x lambda) per theta call in the band sum: one
# complex block is then 128 KiB, glibc's default mmap threshold, so a block's
# arrays reuse heap memory instead of being mapped and faulted in afresh for
# every block
_BAND_ENTRIES = 8192

# samples per lambda and pair that the band sum takes at most, at every d
_BAND_CAP = 20001

# node steps per block of the finite part
_FP_BLOCK = 64

# beyond shell 8 the band sum samples each n_j on a stride of about this
# width in x. = |lam|(2n + k + 1); halving it moves c15's errors by at most 2e-6
_XDOT_STEP = 0.05

# the finite part sums shells n < _FP_EXACT exactly, then samples the
# integer nodes round(_FP_EXACT e^{j _FP_LOG_STEP}), j <= _FP_NODES
# (n up to 2.5e15, below 2^53); 0.05 keeps it within 2.1e-7 of the full
# shell sum on heat, gauss_profile and exp_floor
_FP_EXACT = 32
_FP_LOG_STEP = 0.05
_FP_NODES = 640


def _shell_sum(blocks, terms, atol):
    """Sum over index shells, block by block: ``blocks`` yields arrays of
    consecutive shell numbers, and ``terms(shells)`` returns the weighted
    sum of each shell, shape (J, K), and its weighted modulus at
    +-lambda_min, shape (J,).  The sum ends after the first block, past
    shell 8, whose last two shells fit a power-law tail (:func:`shell_tail`)
    below ``atol``, or when ``blocks`` runs out.  Returns the value, the
    tail fitted at the last block's end, and the sum of the edge moduli,
    which each caller turns into its strip term."""
    total, edge, tail, prev = 0.0 + 0.0j, 0.0, math.inf, math.nan
    for shells in blocks:
        sums, edges = terms(shells)
        sizes = np.concatenate([[prev], np.abs(sums).sum(axis=1)])
        total, edge = total + np.sum(sums), edge + np.sum(edges)
        tail = float(shell_tail(sizes[-2], sizes[-1], shells[-1]))
        if shells[-1] >= 8 and tail < atol:
            break
        prev = sizes[-1]
    return total, tail, edge


def _sample_weights(j, stride):
    """Weights of the band-sum samples ``j`` (shape (J, 1)) at the strides
    of each lambda (shape (lambda,)), as a (J, lambda) array.

    Samples j < 8 are single shells.  From j = 8 on, a stride s > 1 makes
    the samples a rule for the integral over n >= 8 (s times Gregory's
    end weights 3/8, 7/6, 23/24, then s), completed to the shell sum by
    the Euler-Maclaurin terms g(8)/2 - g'(8)/12, with
    g'(8) = (-3 g_0 + 4 g_1 - g_2) / (2 s) from the first three samples.
    At s = 1 every weight is exactly 1.
    """
    s = stride.astype(float)
    head = np.array([3.0 / 8.0 * s + 0.5 + 3.0 / (24.0 * s),
                     7.0 / 6.0 * s - 4.0 / (24.0 * s),
                     23.0 / 24.0 * s + 1.0 / (24.0 * s)])                # (3, lambda)
    w = np.where(j < 11, head[np.clip(j[:, 0] - 8, 0, 2)], s)
    return np.where((j < 8) | (stride == 1), 1.0, w)


def _band_blocks(d, per_block):
    """Shells 0, 1, ... within _BAND_CAP samples, by at most ``per_block`` samples or one shell."""
    last, stop = int(_BAND_CAP ** (1.0 / d)), 0
    while stop < last:
        start, stop = stop, min(last, max(stop + 1, int((per_block + stop ** d) ** (1.0 / d))))
        yield np.arange(start, stop)


def _diagonal_band_sum(theta, grid, d, atol=1e-6):
    """Sum of theta over its support band against the frequency measure.

    For fixed lambda, sum_n theta(n, n + k, lambda) |lambda|^d is a Riemann
    sum of cell (2|lambda|)^d in x._i = |lambda|(2n_i + k_i + 1), the
    boundary variables the interior tends to as lambda -> 0.  So each
    coordinate is sampled on a stride in x.: n_i < 8 one by one, then
    sample j >= 8 at n_i = 8 + (j - 8) s, s = max(1, floor(_XDOT_STEP /
    (2|lambda|))), with the weights of :func:`_sample_weights` (all 1, the
    exact shell sum, where s = 1); a multi-sample carries the product of
    its coordinates' weights.  Shell j holds the multi-samples whose
    largest coordinate sample is j.  :func:`_shell_sum` takes them in
    blocks (one theta call per block, across all lambda and all pairs
    m - n) of at most _BAND_ENTRIES (sample x pair x lambda) entries or one
    shell, up to _BAND_CAP samples per lambda and pair.  At d = 1 a block
    from j >= max(11, band) on has every weight equal to the stride and
    every m >= 0, so it skips the per-sample weights and the m >= 0 mask.
    The tail adds to the fitted one the uncovered strip |lambda| <
    lambda_min: as lambda -> 0 the x.-sum sum_n |theta| |lambda|^d tends
    to a constant, so the strip freezes it at +-lambda_min (each sample
    with its weight) times the strip width lambda_min.

    The pairs m - n run over theta's reach (its band, else its box).  A
    theta that declares a box is summed exactly over every pair within
    that reach of its box, as :func:`integrate` sums it, and its tail is
    the strip alone.  A ``d`` other than theta's is refused.
    """
    if d != theta.d:
        raise ValueError(f"theta {theta.label!r} has d = {theta.d}, not the band sum's d = {d}")
    band = _k_reach(theta)
    lam = grid.lam
    meas = np.abs(lam) ** d * grid.weights
    edge = [grid.points_per_sign - 1, grid.points_per_sign]                # lambda = -+lambda_min
    if theta.box is not None:
        n, m = box_pairs(d, theta.box, band)
        vals = theta(n[:, None], m[:, None], lam)
        strip = np.sum(np.abs(vals[:, edge])) * grid.lambda_min ** (d + 1)
        return complex(np.sum(vals * meas)), float(strip)
    offsets = np.array(list(product(range(-band, band + 1), repeat=d)))   # (pairs, d)
    stride = np.maximum(1, np.floor(_XDOT_STEP / (2.0 * np.abs(lam)))).astype(int)

    def terms(shells):
        if d == 1 and shells[0] >= max(11, band):                        # weights s, m >= 0
            n = 8 + (shells[:, None] - 8) * stride                       # (J, lambda)
            w = stride.astype(float)[None, None]                         # (1, 1, lambda)
            vals = theta(n[:, None, :, None], (n[:, None] + offsets)[..., None], lam)
        else:
            # the block's multi-samples j by shell; each coordinate's n and weight
            js = np.arange(shells[-1] + 1)[:, None]
            j = np.indices((len(js),) * d).reshape(d, -1).T
            j = j[np.argsort(j.max(axis=1), kind="stable")][shells[0] ** d:]   # (S, d)
            n = np.where(js < 8, js, 8 + (js - 8) * stride)[j].transpose(0, 2, 1)   # (S, lambda, d)
            w = np.prod(_sample_weights(js, stride)[j], axis=1)[:, None]  # (S, 1, lambda)
            m = n[:, None] + offsets[:, None]                            # (S, pairs, lambda, d)
            vals = theta(n[:, None], np.maximum(m, 0), lam)
            if band:
                vals = np.where((m >= 0).all(axis=-1), vals, 0.0)
        sums = (vals * (w * meas)).sum(axis=-1)                          # (S, pairs)
        edges = (np.abs(vals[..., edge]) * w[..., edge]).sum(axis=(1, 2))
        at = shells ** d - shells[0] ** d                                # each shell's first sample
        return (sums, edges) if d == 1 else (np.add.reduceat(sums, at), np.add.reduceat(edges, at))

    blocks = _band_blocks(d, max(1, _BAND_ENTRIES // (len(offsets) * len(lam))))
    total, tail, edges = _shell_sum(blocks, terms, atol)
    return complex(total), float(tail + edges * grid.lambda_min ** (d + 1))


def _simpson_weights(u):
    """Weights of composite Simpson's rule on the unequally spaced nodes
    ``u`` (an odd count): each pair of steps h0, h1 integrates the
    quadratic through its three nodes."""
    h = np.diff(u)
    h0, h1 = h[0::2], h[1::2]
    s = h0 + h1
    w = np.zeros(len(u))
    w[:-1:2] += s / 6.0 * (2.0 - h1 / h0)
    w[1::2] += s / 6.0 * s * s / (h0 * h1)
    w[2::2] += s / 6.0 * (2.0 - h0 / h1)
    return w


@lru_cache(maxsize=None)
def _fp_table():
    """The finite part's nodes (n < n0 = _FP_EXACT, then round(n0 e^{j h}),
    h = _FP_LOG_STEP, j <= _FP_NODES), their weights (1, with the
    Euler-Maclaurin start terms f(n0)/2 - f'(n0)/12 from the shells
    n0 - 2..n0, plus Simpson's weights in log n times n from n0 on), where
    each shell starts (one node up to n0, then one Simpson panel, so shell
    sums do not alternate with the weights), and the blocks: the head
    shells, then _FP_BLOCK nodes each.  A block's last node keeps the next
    panel's opening weight, so a sum that stops there adds a sixth of a
    panel, within its fitted tail."""
    nodes = np.rint(_FP_EXACT * np.exp(_FP_LOG_STEP * np.arange(_FP_NODES + 1))).astype(np.int64)
    weights = _simpson_weights(np.log(nodes)) * nodes
    head = np.ones(_FP_EXACT + 1)
    head[-3:] = [1.0 - 1.0 / 24.0, 1.0 + 1.0 / 6.0, 0.5 - 1.0 / 8.0 + weights[0]]
    starts = np.r_[np.arange(_FP_EXACT + 1), np.arange(_FP_EXACT + 1, _FP_EXACT + _FP_NODES + 2, 2)]
    blocks = np.split(np.arange(len(starts) - 1), range(_FP_EXACT + 1, len(starts) - 1, _FP_BLOCK // 2))
    return np.r_[np.arange(_FP_EXACT), nodes], np.r_[head, weights[1:]], starts, blocks


def _finite_part(gamma, theta, grid, atol=1e-7):
    """Symmetrized, origin-subtracted integral of the supercritical power.

    On the positive grid, with c = w |lam|^{1-gamma} (grid weight w):

        sum_lam c sum_n [theta(n, lam) + theta(n, -lam) - 2 theta(0^)] (2n+1)^{-gamma}.

    The origin part is closed in form: sum_n (2n+1)^{-gamma} =
    2^{-gamma} zeta(gamma, 1/2) (Hurwitz zeta), and so is the range
    beyond lambda_max, where the test function has decayed and only
    -2 theta(0^) (lam(2n+1))^{-gamma} lam remains (its lambda-integral
    converges because gamma > d + 1).

    The theta part decays with theta but is singular like x.^{-gamma} at
    small x. = lam(2n+1), so it is sampled geometrically in x.: shells
    n < _FP_EXACT exactly, then integer nodes geometric in n, shared by
    every lambda, with Simpson's weights in log n (:func:`_fp_table`), and
    summed by :func:`_shell_sum` (one theta call per block).

    The reported tail adds to the fitted tail the uncovered strip
    0 < |lam| < lambda_min, modelled with the square-root modulus of
    continuity: sum_n |D_n| (2n+1)^{-gamma} lambda_min^{2-gamma} /
    (5/2 - gamma), with D_n = theta(n, lambda_min) + theta(n, -lambda_min)
    - 2 theta(0^), summed on the same samples; its origin part
    2 |theta(0^)| is closed with zeta.  The strip is not added to the
    value.  d = 1 only.
    """
    if theta.d != 1:
        raise ValueError("finite part implemented for d = 1")
    theta0 = theta.value_at_origin(grid)
    pos = grid.lam[grid.lam > 0]
    coef = grid.weights[grid.lam > 0] * pos ** (1.0 - gamma)
    both = np.concatenate([pos, -pos])
    P = len(pos)

    def rows(n):
        # theta part of each shell, and |D_n| - 2|theta(0^)| at lambda_min
        vals = theta(n[:, None, None], n[:, None, None], both)
        power = (2.0 * n + 1.0) ** (-gamma)
        edge = np.abs(vals[:, 0] + vals[:, P] - 2.0 * theta0) - 2.0 * abs(theta0)
        return np.stack([(vals[:, :P] + vals[:, P:]) @ coef * power, edge * power])

    if theta.box is not None:
        # the box is the support: every shell up to it, exactly, and no shell tail
        part, edge = rows(np.arange(theta.box + 1)).sum(axis=1)
        tail = 0.0
    else:
        nodes, weights, starts, blocks = _fp_table()

        def terms(shells):
            lo, hi = starts[shells[0]], starts[shells[-1] + 1]
            part, edge = np.add.reduceat(rows(nodes[lo:hi]) * weights[lo:hi], starts[shells] - lo, axis=1)
            return part[:, None], edge.real

        part, tail, edge = _shell_sum(blocks, terms, atol)
    zeta = 2.0 ** (-gamma) * hurwitz_zeta(gamma, 0.5)
    origin = -2.0 * theta0 * zeta * (np.sum(coef) + grid.lambda_max ** (2.0 - gamma) / (gamma - 2.0))
    strip = (edge.real + 2.0 * abs(theta0) * zeta) * grid.lambda_min ** (2.0 - gamma) / (2.5 - gamma)
    return complex(part + origin), float(tail + strip)


def _boundary_measure_pair(density, theta):
    """2^{-d-1} sum_k (both orthants) density * theta against dx (d = 1).

    k runs over theta's reach (its band, else its box).  ``density(xs,
    ks)`` takes the abscissae of both orthants, (-x, x) for the half-line
    rule x, and the array of k, and returns values broadcasting to shape
    (len(xs), len(ks)); a constant ``lambda xs, ks: 1.0`` is the bare
    measure.  density and theta are each evaluated once, on the whole
    (xs, ks) table; the orthants are summed one after the other.
    """
    if theta.d != 1:
        raise ValueError("boundary-measure pairing implemented for d = 1")
    k_band = _k_reach(theta)
    # 24-point panels on [0, 0.02] and geometric ones out to x. = 28
    xs, ws = gauss_legendre(np.concatenate([[0.0], np.geomspace(0.02, 28.0, 12)]), 24)
    ks = np.arange(-k_band, k_band + 1)
    both = np.concatenate([-xs, xs])
    terms = density(both, ks) * theta.at_boundary(both[:, None, None], ks[:, None]) \
        * np.concatenate([ws, ws])[:, None]
    half = len(xs)
    return 0.25 * complex(np.sum(terms[:half]) + np.sum(terms[half:]))


def pair(T, theta, grid=None, atol=1e-6):
    """Pairing of a frequency-side distribution with a test function.

    A function-backed term is summed over the smaller of the index boxes
    that its payload (a table's ``n_max``) and theta declare.  Returns an
    :class:`IntegralResult` with the value and a truncation-tail estimate
    (zero for the exact point evaluations).  Raises ValueError when theta
    and T differ in dimension, or when neither a function-backed payload
    nor theta declares a box.
    """
    if T.side != "freq":
        raise ValueError("pair a frequency-side distribution (transform first)")
    if theta.d != T.d:
        raise ValueError(f"dimension mismatch: distribution has d = {T.d}, "
                         f"test function d = {theta.d}")
    grid = grid if grid is not None else LambdaGrid()
    value = 0.0 + 0.0j
    tail = 0.0
    for coeff, kind, payload in T.terms:
        if kind == "freq_function":
            res = integrate(_product_fn(payload, theta), grid)
            value += coeff * res.value
            tail += abs(coeff) * res.tail_bound
        elif kind == "freq_identity_sum":
            # sum_n int theta(n, n, lam) |lam|^d dlam
            v, t = _diagonal_band_sum(FreqFunction(theta, d=T.d, band=0, box=theta.box,
                                                        label=theta.label), grid, T.d, atol)
            value += coeff * v
            tail += abs(coeff) * t
        elif kind == "freq_dirac_origin":
            value += coeff * theta.value_at_origin(grid)
        elif kind == "freq_finite_part":
            v, t = _finite_part(float(payload), theta, grid, atol=atol)
            value += coeff * v
            tail += abs(coeff) * t
        elif kind == "freq_boundary_measure":
            value += coeff * _boundary_measure_pair(payload, theta)
        else:  # pragma: no cover
            raise ValueError(kind)
    return IntegralResult(complex(value), float(tail))


def _product_fn(psi, theta):
    # the product vanishes wherever either factor does
    bands = [b for b in (psi.band, theta.band) if b is not None]
    boxes = [b for b in (psi.box, theta.box) if b is not None]

    def interior(n, m, lam):
        return psi(n, m, lam) * theta(n, m, lam)

    return FreqFunction(interior, d=psi.d, band=min(bands) if bands else None,
                        box=min(boxes) if boxes else None, label=f"{psi.label}*{theta.label}")


def g_hat_boundary(g, xdot, k):
    """Boundary transform of a Y-only function: quadrature of the conjugate
    boundary kernel against g over its grid."""
    d = g.d
    mesh = np.meshgrid(*([g.y_axis] * d + [g.eta_axis] * d), indexing="ij")
    Y = np.stack(mesh, axis=-1).reshape(-1, 2 * d)
    kern = np.conj(boundary_kernel(xdot, k, Y)).reshape(g.samples.shape)
    return complex(np.sum(kern * g.samples) * g.cell_area)


def g_hat_boundary_batch(g, xs, k_list):
    """Closed-form d = 1 boundary transform over many boundary abscissae.

    The conjugate kernel is (-1)^k e^{ik phi} J_k(2 sqrt|x.| |Y|) with
    phi = atan2(sgn(x.) eta, y), so the Y-sum is a sum over the distinct
    radii |Y| of the grid of the Bessel factor times the k-th angular
    moment of g on that ring.  ``xs`` may mix both signs: the angular
    moments are built once for each sign and the Bessel tables once, on
    the distinct |x.|.  Returns an array of shape (len(xs), len(k_list)).
    """
    if g.d != 1:
        raise ValueError("batch boundary transform implemented for d = 1")
    xs = np.asarray(xs, dtype=float)
    kvec = np.asarray(k_list, dtype=int)
    y, eta = np.meshgrid(g.y_axis, g.eta_axis, indexing="ij")
    radii, ring = np.unique(np.hypot(y, eta).ravel(), return_inverse=True)
    # angular moments sum_{ring} e^{ik phi} g, for sgn(x.) = +1 and -1
    moments = np.zeros((len(kvec), len(radii), 2), dtype=complex)
    for i, sign in enumerate((1.0, -1.0)):
        phi = np.arctan2(sign * eta, y).ravel()
        np.add.at(moments[..., i].T, ring,
                  np.exp(1j * np.outer(phi, kvec)) * g.samples.ravel()[:, None])
    side = (xs < 0).astype(int)
    ax, row = np.unique(np.abs(xs), return_inverse=True)
    arg = np.outer(2.0 * np.sqrt(ax), radii)
    # (-1)^k J_k = J_|k| for k < 0: one Bessel table per order |k|; j0 and
    # j1 are about 20 times faster than jv at orders 0 and 1
    order = {0: j0, 1: j1}
    bessel = {q: order[q](arg) if q in order else jv(q, arg) for q in set(np.abs(kvec).tolist())}
    out = np.empty((len(xs), len(kvec)), dtype=complex)
    for j, k in enumerate(kvec):
        # the real table against the real view of the moments, not cast to complex
        sums = (bessel[abs(k)] @ moments[j].view(float)).view(complex)  # (len(ax), 2)
        out[:, j] = (1.0 if k < 0 else (-1.0) ** k) * sums[row, side]
    return out * g.cell_area


def fourier_distribution(T, grid=None, n_max=24):
    """Fourier transform of a physical-side distribution, term by term.

    Closed forms: the origin point mass maps to the diagonal trace
    functional; the constant one to pi^{d+1}/2^{d-1} times the point mass
    at the distinguished boundary origin; g (x) 1 to 2 pi (G g) against
    the boundary measure.  Function-backed terms go through the factored
    transform.
    """
    if T.side != "phys":
        raise ValueError("expected a physical-side distribution")
    d = T.d
    out = []
    for coeff, kind, payload in T.terms:
        if kind == "phys_dirac":
            out.append((coeff, "freq_identity_sum", None))
        elif kind == "phys_one":
            out.append((coeff * math.pi ** (d + 1) / 2.0 ** (d - 1), "freq_dirac_origin", None))
        elif kind == "phys_g_tensor_one":
            out.append((coeff * 2.0 * math.pi, "freq_boundary_measure",
                        partial(g_hat_boundary_batch, payload)))
        elif kind == "phys_function":
            from .transform import forward_factored

            table = forward_factored(payload, n_max, grid if grid is not None else LambdaGrid())
            out.append((coeff, "freq_function", table.as_freq_function()))
        else:  # pragma: no cover
            raise ValueError(kind)
    return Distribution(out, d=d)


def make_f_gamma(gamma, d=1):
    """Diagonal power family (|lam| (2|m| + d))^{-gamma} delta_{n,m}."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def interior(n, m, lam):
        power = (np.abs(lam) * (2.0 * m.sum(axis=-1) + d)) ** (-gamma)
        return np.where((n == m).all(axis=-1), power, 0.0) + 0j

    return FreqFunction(interior, d=d, band=0, label=f"f_gamma({gamma})")
