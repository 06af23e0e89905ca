"""The group Fourier transform: forward, inverse, and spectral algebra.

Forward transform of a sampled field f at (n, m, lam):

    fhat(n, m, lam) = int conj(e^{i s lam} W(n, m, lam, Y)) f(Y, s) dY ds.

Three numerical routes are provided and cross-checked:

* ``forward_direct``  -- vertical Fourier sum followed by Y-grid quadrature
  against the conjugate Wigner symbol in closed form (spot evaluations);
* ``forward_factored`` -- full tables through the factored pipeline
  (partial Fourier transform in (eta, s) evaluated at exact target
  frequencies, change of variables, Hermite projection).  The projection
  quadrature runs in rotated coordinates u = (x - x')/2, tau = (x + x')/2
  so the partial-transform argument stays on the (trigonometrically
  refined) y-lattice and no polynomial interpolation ever enters; the
  Hermite pair in those coordinates is a finite orthogonal sum of products
  h_p(a) h_q(c), so the projection contracts the u-lattice for a whole
  block of lambdas in one stacked GEMM and leaves two small GEMMs per
  lambda on the tau side, over a range the eta-Nyquist bound sets;
* ``rep_matrix_coeff`` -- matrix coefficients of the operator-valued
  transform through its integral kernel, with the projection integrals
  done in closed form via the Fourier eigenfunction property of the
  Hermite functions.

The inverse sums e^{i s lam} W theta against the frequency measure with
the constant 2^{d-1} / pi^{d+1}.  On a grid, the lambda slices
sum_{n,m} theta W of a theta with an index box (a table, or a multiplier
of one) go through the forward's 45-degree rotation (every lambda at
once: two Hermite row evaluations and one stacked GEMM pair).  A banded
theta is a short Fourier series in the polar angle of Y whose
coefficients, one channel per k = m - n, are sums of Laguerre functions
in rho^2 = 2 |lam| |Y|^2: they are summed on the distinct radii of the
grid only, every lambda in one recurrence per |k|, and a diagonal theta
is the single channel k = 0.  The oscillatory lambda stage then
integrates the stacked slices against e^{i s lam} through one (lambda, s)
weight matrix.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import _refuse_constant
from .fields import SampledField, _write_csv
from .freq_space import (
    FreqFunction,
    LambdaGrid,
    _check_types,
    _index_box,
    _k_reach,
    box_pairs,
    gauss_legendre,
    integrate,
    simpson_log_weights,
    sqrt_richardson,
)
from .hermite import _rotation_block, hermite_rows
from .wigner import wigner_conj_grid, wigner_eval, wigner_series_dense, wigner_series_radial

__all__ = [
    "SpectralTable",
    "forward_direct",
    "forward_factored",
    "rep_matrix_coeff",
    "inverse_at_point",
    "inverse_on_grid",
    "transpose_transform",
    "plancherel_norms",
    "spectral_product",
    "spectral_product_boundary",
    "multiplier_apply",
    "table_to_csv",
    "table_from_csv",
]


# ---------------------------------------------------------------------------
# spectral tables
# ---------------------------------------------------------------------------

@dataclass
class SpectralTable:
    """Transform values on the truncated index box and a lambda grid.

    ``values`` has shape (n_max+1,)*2d + (len(grid.lam),); index order is
    (n_1..n_d, m_1..m_d, lambda).
    """

    values: np.ndarray
    grid: LambdaGrid
    d: int = 1
    provenance: str = "direct"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 * self.d + 1:
            raise ValueError("table rank must be 2 d + 1")
        if self.values.shape[-1] != len(self.grid.lam):
            raise ValueError("lambda axis length mismatch")

    @property
    def n_max(self):
        return self.values.shape[0] - 1

    def as_freq_function(self):
        """Table-backed FreqFunction with index box ``n_max``, and a
        KeyError for a lambda off the table grid.  The interior clips its
        gather into the table; the box makes the function zero past it."""

        def interior(n, m, lam):
            il, on_grid = _grid_index(self.grid.lam, lam)
            if not on_grid:
                raise KeyError(f"lambda {lam} not on the table grid")
            nm = np.clip(np.concatenate(np.broadcast_arrays(n, m), axis=-1), 0, self.n_max)
            return self.values[tuple(np.moveaxis(nm, -1, 0)) + (il,)]

        return FreqFunction(interior, d=self.d, box=self.n_max, label=f"table:{self.provenance}")


def _grid_index(grid_lam, lam):
    """Index of the grid point nearest each lam, and whether every lam
    lies on the (ascending) grid to 1e-9 relative."""
    lam = np.asarray(lam, dtype=float)
    hi = np.clip(np.searchsorted(grid_lam, lam), 1, len(grid_lam) - 1)
    il = np.where(np.abs(grid_lam[hi - 1] - lam) <= np.abs(grid_lam[hi] - lam), hi - 1, hi)
    on_grid = np.all(np.abs(grid_lam[il] - lam) <= 1e-9 * np.maximum(np.abs(lam), 1e-30))
    return il, bool(on_grid)


def _csv_columns(d):
    return [f"n{j}" for j in range(d)] + [f"m{j}" for j in range(d)] + ["lambda", "re", "im"]


def table_to_csv(table, path):
    """CSV export (n.., m.., lambda, re, im) with a JSON sidecar at
    ``path + ".json"``; floats use round-trip-exact formatting."""
    d = table.d
    index = np.indices(table.values.shape, sparse=True)[:-1]
    _write_csv(path, ",".join(_csv_columns(d)),
               [*index, table.grid.lam, table.values.real, table.values.imag])
    meta = {
        "d": d,
        "n_max": table.n_max,
        "grid": json.loads(table.grid.to_json()),
        "provenance": table.provenance,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def table_from_csv(path):
    """Read a table written by :func:`table_to_csv`.

    Values are placed by their (n.., m.., lambda) columns, so the row order
    is free.  Raises ValueError for a wrong header, indices outside
    [0, n_max], a lambda off the sidecar grid (1e-9 relative), a missing or
    duplicate entry, or a non-finite value, and as :func:`_read_sidecar`
    for a malformed sidecar.
    """
    d, n_max, grid, provenance = _read_sidecar(str(path) + ".json")
    shape = (n_max + 1,) * (2 * d) + (len(grid.lam),)
    cols = _csv_columns(d)
    with open(path) as fh:
        if fh.readline().strip() != ",".join(cols):
            raise ValueError(f"{path}: header is not {','.join(cols)}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (math.prod(shape), len(cols)):
        raise ValueError(f"{path}: {data.shape[0]} rows of {data.shape[1]} columns, "
                         f"expected {math.prod(shape)} rows of {len(cols)}")
    idx = data[:, : 2 * d]
    if np.any((idx != np.round(idx)) | (idx < 0) | (idx > n_max)):
        raise ValueError(f"{path}: index outside 0..{n_max}")
    il, on_grid = _grid_index(grid.lam, data[:, 2 * d])
    if not on_grid:
        raise ValueError(f"{path}: lambda off the sidecar grid")
    if not np.all(np.isfinite(data[:, 2 * d + 1 :])):
        raise ValueError(f"{path}: non-finite value")
    flat = np.ravel_multi_index(tuple(idx.astype(int).T) + (il,), shape)
    if np.bincount(flat).max() > 1:
        raise ValueError(f"{path}: duplicate (n, m, lambda) rows")
    values = np.zeros(math.prod(shape), dtype=complex)
    values.real[flat] = data[:, 2 * d + 1]
    values.imag[flat] = data[:, 2 * d + 2]
    return SpectralTable(values.reshape(shape), grid, d, provenance)


def _read_sidecar(path):
    """(d, n_max, grid, provenance) from a table's JSON sidecar at ``path``.

    The sidecar must be standard JSON (no NaN or Infinity): an object with
    an integer ``d`` >= 1, an integer ``n_max`` >= 0 and a ``grid`` object
    holding the three :class:`LambdaGrid` fields (its ``ratio`` is derived
    by the writer and left unread).  Anything else raises ValueError
    naming ``path`` and the first offending key.
    """
    try:
        with open(path) as fh:
            meta = json.load(fh, parse_constant=_refuse_constant)
        _required_keys(meta, ("d", "n_max", "grid"), "")
        fields = ("lambda_min", "lambda_max", "points_per_sign")
        _required_keys(meta["grid"], fields, "grid.")
        if meta["d"] < 1 or meta["n_max"] < 0:
            raise ValueError(f"need d >= 1 and n_max >= 0, got {meta['d']} and {meta['n_max']}")
        grid = LambdaGrid(*(meta["grid"][key] for key in fields))
    except ValueError as exc:
        raise ValueError(f"{exc} (in {path})") from None
    return meta["d"], meta["n_max"], grid, meta.get("provenance", "import")


def _required_keys(raw, keys, where):
    """Refuse a JSON value ``raw`` that is not an object, lacks one of
    ``keys`` or holds a wrongly typed field, naming ``where`` + the key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{repr(where[:-1]) if where else 'the top level'} must be a JSON object")
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ValueError(f"missing key {where + missing[0]!r}")
    _check_types(raw, where)


# ---------------------------------------------------------------------------
# vertical Fourier sums and helpers
# ---------------------------------------------------------------------------

def _fs_many(fld, lams):
    """F_s f(Y, lam) = sum_s e^{-i s lam} f(Y, s) h_s for each of ``lams``."""
    phase = np.exp(-1j * np.outer(fld.s_axis, np.asarray(lams))) * fld.spacings[2]
    return fld.samples @ phase  # (..Y.., L)


def _lattice_sum(factors, values):
    """sum over the (y_1..y_d, eta_1..eta_d) lattice of ``values`` times
    the product of the per-coordinate ``factors``, factor j indexed by
    (y_j, eta_j)."""
    d = len(factors)
    letters = "abcdefgh"
    spec = ",".join(letters[j] + letters[d + j] for j in range(d))
    return np.einsum(spec + "," + letters[: 2 * d] + "->", *factors, values)


def forward_direct(fld, n, m, lam):
    """Transform at one frequency point by tensor quadrature on f's grid.

    The vertical axis is summed first; the Y-grid sum then runs against
    the conjugate Wigner symbol, whose coordinate factors are the
    closed-form Laguerre functions of :mod:`hfourier.wigner`.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    n = tuple(int(v) for v in n)
    m = tuple(int(v) for v in m)
    d = fld.d
    fs = _fs_many(fld, [lam])[..., 0]  # (..Y..)
    mats = [wigner_conj_grid(n[j], m[j], lam, fld.y_axis, fld.eta_axis) for j in range(d)]
    acc = _lattice_sum(mats, fs)
    hy, he, _ = fld.spacings
    return complex(acc * hy**d * he**d)


# ---------------------------------------------------------------------------
# factored pipeline (d = 1)
# ---------------------------------------------------------------------------

def _upsample_axis(arr, factor, axis=0):
    """Trigonometric refinement of a uniformly sampled axis (odd length):
    the spectrum zero-padded between its nonnegative and negative halves."""
    N = arr.shape[axis]
    spec = np.moveaxis(np.fft.fft(arr, axis=axis), axis, 0)
    padded = np.zeros((N * factor,) + spec.shape[1:], dtype=complex)
    half = (N + 1) // 2
    padded[:half] = spec[:half]
    padded[N * factor - (N - half):] = spec[half:]
    out = np.fft.ifft(np.moveaxis(padded, 0, axis), axis=axis)
    out *= factor
    return out


@lru_cache(maxsize=None)
def _refinement(N, factor):
    """The real (N factor, N) matrix U of :func:`_upsample_axis` on an axis
    of odd length N: U S refines the first axis of S.  The padded spectrum
    of a real sequence stays Hermitian, so U is real; the FFT route leaves
    an imaginary part of rounding size (below 1e-16), dropped here.

    Cached and returned read-only, since every caller shares it.
    """
    U = np.ascontiguousarray(_upsample_axis(np.eye(N), factor).real)
    U.flags.writeable = False
    return U


def _gl_panels(extent, bandwidth):
    """Symmetric tau-rule on [-extent, extent]: equal 12-point panels on
    the half-line, about 2.3 nodes per period of ``bandwidth``."""
    per_unit = max(2.3 * bandwidth / (2.0 * math.pi), 0.15)
    panels = max(2, int(math.ceil(extent * per_unit / 12)))
    x, w = gauss_legendre(np.linspace(0.0, extent, panels + 1), 12)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# trigonometric refinement of the lattice variable in the forward projection
_UPSAMPLE = 8
# lambdas projected together: bounds the (q, lambda, u) and (p, sum K)
# Hermite stacks and the phases at a few MB whatever the grid
_LAM_BLOCK = 16


def forward_factored(fld, n_max, grid):
    """Full spectral table of a d = 1 field through the factored pipeline.

    Pipeline: (i) partial Fourier transform in (eta, s), evaluated at the
    exact frequencies the remap requires (a nonuniform discrete sum, no
    interpolation); (ii) remap (x, x', lam) -> ((x-x')/2, lam (x+x'), lam)
    realized by rotating the projection coordinates; (iii) projection onto
    the Hermite pair h_n(sqrt|lam| (tau+u)) h_m(sqrt|lam| (tau-u)) by
    composite Gauss-Legendre quadrature in tau and a Riemann sum in the
    lattice variable u, trigonometrically refined (factor 8) to stay
    alias-free across the whole (n, lam) range.  The refinement is the real
    matrix U of :func:`_refinement`; the refined field U S of a coarse
    (y, eta) slab S is never built.  The pair is a 45-degree rotation of
    h_{N-k}(a) h_k(c), a = sqrt(2|lam|) tau, c = sqrt(2|lam|) u, N = n + m
    (see :func:`_rotation_block`), so the quadrature reduces to the moments
    M[p, q] of h_p(a) h_q(c): each entry is sqrt|lam| sum_k D_N[k, n] M[N-k, k].

    Each tau-rule depends on lambda, ``n_max`` and the grid only: it spans
    the smaller of the Hermite pair's extent and 1.15 xi_N / (2 |lam|),
    where the phase frequency 2 |lam| tau passes the eta-Nyquist frequency
    xi_N = pi / h_eta and the eta-sum returns only the alias.  The lambdas
    are stacked, in blocks of ``_LAM_BLOCK``.  The u-lattice is contracted
    first, B = (H_u U) S for every slab of the block in one stacked real
    GEMM on one Hermite row evaluation.  Only the tau side, whose node
    count varies with lambda, stays per lambda: M = (H_tau w) (B phase)^T,
    its Hermite rows again from one evaluation on the block's concatenated
    nodes.  The eta-sum runs by parity: with arg = -2 lam eta tau,

        sum_eta b(eta) e^{i arg} = b(0) + sum_{eta > 0} (b(eta) + b(-eta)) cos(arg)
                                        + i (b(eta) - b(-eta)) sin(arg),

    so one real table, cosines on eta >= 0 and sines on eta > 0, meets the
    parity-combined B in a real GEMM of half the flops of the complex
    phase.  On an eta axis that is not exactly symmetric, -eta_j is read
    as the mirrored node, an abscissa moved by at most one ulp.
    """
    if fld.d != 1:
        raise ValueError("factored pipeline implemented for d = 1 (use forward_direct elsewhere)")
    lam_all = grid.lam
    L = len(lam_all)
    real_input = fld.is_real()

    eta_axis = fld.eta_axis
    mid = len(eta_axis) // 2  # the odd eta axis has eta = 0 at mid
    h_eta = fld.spacings[1]
    Ly, hy = fld.extents[0], fld.spacings[0]

    # the sampled vertical axis resolves no frequency beyond pi / h_s; the
    # discrete sum would return the alias there, so those slices stay zero
    resolved = np.abs(lam_all) <= 0.98 * math.pi / fld.spacings[2]
    lams = lam_all[resolved & (lam_all > 0)] if real_input else lam_all[resolved]
    # the coarse slabs in (lam, y, eta) layout and the refinement of y
    fs = np.ascontiguousarray(np.moveaxis(_fs_many(fld, lams), -1, 0))
    U = _refinement(fs.shape[1], _UPSAMPLE)
    hu = hy / _UPSAMPLE
    u_axis = -Ly + hu * np.arange(U.shape[0])

    root_pref = math.sqrt(2 * n_max + 1)
    # sqrt|lam| int h_p(a) h_q(c) phi du dtau, a = sqrt(2|lam|) tau, c = sqrt(2|lam|) u,
    # one column per resolved lambda
    moments = np.empty((2 * n_max + 1, 2 * n_max + 1, len(lams)), dtype=complex)

    for start in range(0, len(lams), _LAM_BLOCK):
        lam = lams[start:start + _LAM_BLOCK]
        al, rl = np.abs(lam), np.sqrt(np.abs(lam))
        slabs = fs[start:start + _LAM_BLOCK]                           # (b, y, eta)
        t_hermite = (root_pref + 9.0) / rl + Ly
        t_phi = 1.15 * (math.pi / h_eta) / (2.0 * al)
        extent = np.minimum(t_hermite, t_phi)
        # Hermite-pair band plus Gaussian-envelope width, both sqrt(lam)-scaled
        bandwidth = rl * (2.0 * root_pref + 8.0) + 2.0 * al * abs(eta_axis).max()
        rules = [_gl_panels(e, b) for e, b in zip(extent.tolist(), bandwidth.tolist())]
        sizes = [len(tau) for tau, _ in rules]
        tau = np.concatenate([tau for tau, _ in rules])
        wtau = np.concatenate([w for _, w in rules])

        # B = (H_u U) S h_eta, the real rows folded with the refinement
        # against the real view of the complex slabs
        h_u = hermite_rows(2 * n_max, (math.sqrt(2.0) * rl)[:, None] * u_axis)  # (q, b, u)
        B = ((h_u.transpose(1, 0, 2) @ U) @ slabs.view(float)).view(complex)    # (b, q, eta)
        B *= h_eta
        h_tau = hermite_rows(2 * n_max, np.repeat(math.sqrt(2.0) * rl, sizes) * tau)  # (p, sum K)
        h_tau *= np.repeat(rl, sizes) * (wtau * hu)
        # the eta-sum by parity: cos(arg) on eta >= 0 against b(0) and
        # b(eta) + b(-eta), sin(arg) on eta > 0 against i (b(eta) - b(-eta));
        # arg = -2 lam eta tau is built in the cosine rows
        trig = np.empty((len(eta_axis), len(tau)))
        arg = np.multiply.outer(eta_axis[mid:], tau, out=trig[:mid + 1])
        arg *= -2.0 * np.repeat(lam, sizes)
        np.sin(arg[1:], out=trig[mid + 1:])
        np.cos(arg, out=arg)
        b_pos, b_neg = B[..., mid + 1:], B[..., mid - 1::-1]
        parity = np.empty((len(lam), len(eta_axis), B.shape[1]), dtype=complex)  # (b, eta, q)
        parity[:, 0] = B[..., mid]
        parity[:, 1:mid + 1] = (b_pos + b_neg).transpose(0, 2, 1)
        parity[:, mid + 1:] = 1j * (b_pos - b_neg).transpose(0, 2, 1)
        splits = np.cumsum(sizes)[:-1]
        for j, (pb, tr, ht) in enumerate(zip(parity, np.split(trig, splits, axis=1),
                                             np.split(h_tau, splits, axis=1)), start):
            moments[:, :, j] = (ht @ (tr.T @ pb.view(float))).view(complex)   # (p, q)

    # h_n(sqrt|lam| (tau+u)) h_m(sqrt|lam| (tau-u)) = sum_k D_N[k, n] h_{N-k}(a) h_k(c), N = n+m,
    # the real D_N against the real view of the moments
    values = np.zeros((n_max + 1, n_max + 1, L), dtype=complex)
    table_cols = np.searchsorted(lam_all, lams)
    for N in range(2 * n_max + 1):
        k = np.arange(N + 1)
        n = np.arange(max(0, N - n_max), min(N, n_max) + 1)
        values[n[:, None], (N - n)[:, None], table_cols] = (
            _rotation_block(N)[:, n].T @ moments[N - k, k].view(float)).view(complex)
    if real_input:
        pos = np.flatnonzero(lam_all > 0)
        values[:, :, L - 1 - pos] = np.conj(values[:, :, pos])

    return SpectralTable(values, grid, 1, provenance="factored")


# ---------------------------------------------------------------------------
# representation-kernel route (independent cross-check)
# ---------------------------------------------------------------------------

def rep_matrix_coeff(fld, lam, n, m):
    """Matrix coefficient of the operator-valued transform between the
    rescaled Hermite functions of indices m and n.

    Route: integral kernel of the representation integral, i.e. the
    partial Fourier transform of f in (eta, s) evaluated at
    ((x - x')/2, lam (x + x'), lam), paired against the Hermite tensor
    H_{n,lam} (x) H_{m,lam}(x').  The y-slot is evaluated through the
    exact lattice Fourier sum and the (x, x') integrals are carried out in
    closed form via the Fourier eigenfunction property of the Hermite
    family, all at the exact target frequencies.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    n = tuple(int(v) for v in n)
    m = tuple(int(v) for v in m)
    d = fld.d
    Ny = fld.points[0]
    hy = fld.spacings[0]
    rl = math.sqrt(abs(lam))

    # lattice frequencies of the y axes; the phase factor moves the sample
    # origin from index 0 to the physical point y = -L
    kfreq = 2.0 * math.pi * (np.arange(Ny) - (Ny - 1) // 2) / (Ny * hy)
    origin_shift = np.exp(1j * kfreq * fld.extents[0])
    eta = fld.eta_axis

    # the vertical sum, then one lattice FFT per y axis
    spec = _fs_many(fld, [lam])[..., 0]
    for ax in range(d):
        spec = np.fft.fftshift(np.fft.fft(spec, axis=ax), axes=ax)
        shape = [1] * spec.ndim
        shape[ax] = Ny
        spec = spec * origin_shift.reshape(shape)
    B = spec * fld.spacings[1] ** d                  # (kappa.., eta..)
    rows = hermite_rows(
        max(n + m),
        np.stack([
            (kfreq[:, None] / 2.0 - lam * eta[None, :]) / rl,
            (kfreq[:, None] / 2.0 + lam * eta[None, :]) / rl,
        ]),
    )
    total = _lattice_sum([rows[n[j], 0] * rows[m[j], 1] for j in range(d)], B)
    pref = (math.pi ** d) * (1j ** sum(n)) * ((-1j) ** sum(m)) / (rl**d * Ny**d)
    return complex(pref * total)


# ---------------------------------------------------------------------------
# inverse transform
# ---------------------------------------------------------------------------

def _diagonal_tail_correction(theta, lam, n_top, radius):
    """Boundary-kernel estimate of the capped diagonal remainder at the
    radii |Y| = ``radius``, one row per lambda of the array ``lam``.

    Indices above the cap sit close to the completion boundary (lam n
    bounded), where the symbol rows are near the boundary kernel slices;
    for geometrically decaying diagonals the remainder is a weighted
    kernel integral over the envelope, evaluated here with the kernel's
    index oscillation resolved (a single representative row would badly
    overcount the nearly cancelling Y-mass).  A lambda whose next two
    diagonal entries do not decay geometrically gets a row of zeros.
    """
    from scipy.special import j0 as j0_bessel

    nxt = np.array([n_top + 1, n_top + 2]).reshape(2, 1, 1)
    t1, t2 = np.broadcast_to(theta(nxt, nxt, lam), (2, len(lam)))
    geometric = (t1 != 0) & (np.abs(t2) < (1.0 - 1e-9) * np.abs(t1))
    r = t2 / np.where(geometric, t1, 1.0)
    geometric &= (np.abs(r.imag) <= 1e-12 * np.abs(r.real)) & (r.real > 0)
    # any ratio in (0, 1) where no correction is made: its weights are zeroed
    r = np.where(geometric, r.real, 0.5)
    # sum_{j >= 0} t1 r^j K(...) as a Gauss-Legendre integral over each
    # geometric envelope (the kernel's index oscillation must be resolved,
    # otherwise the correction overcounts the nearly cancelling Y-mass)
    edges = np.stack([np.full(len(lam), -0.5), 18.0 / -np.log(r)], axis=1)
    j_nodes, j_w = gauss_legendre(edges, 32)                       # (lambda, 32)
    # the zero-integer-index kernel slice is radial: a Bessel J0 profile,
    # one row per node
    x_j = np.abs(lam)[:, None] * (2.0 * (n_top + 1 + j_nodes) + 1.0)
    rows = j0_bessel(2.0 * np.sqrt(x_j)[..., None] * radius)      # (lambda, 32, radii)
    w = np.where(geometric[:, None], j_w * t1[:, None] * r[:, None] ** j_nodes, 0.0)
    return (w[:, None] @ rows)[:, 0]


def _n_extent(theta, lam, n_cap):
    """Largest diagonal index with non-negligible weight at each lambda of
    the array ``lam``, from one theta call: the first of 4, 8, 16, ...
    below ``n_cap`` where |theta| falls under 1e-15 times its value at
    index 0, else ``n_cap``; 0 where theta vanishes at index 0."""
    probes = [4 << k for k in range(n_cap.bit_length()) if 4 << k < n_cap]
    idx = np.repeat(np.array([0] + probes)[:, None, None], theta.d, axis=2)
    # a theta whose interior ignores lambda returns one column: spread it
    mags = np.broadcast_to(np.abs(theta(idx, idx, lam)), (len(probes) + 1, np.size(lam)))
    # a last row of True picks n_cap where no probe falls small
    small = np.vstack([mags[1:] < 1e-15 * mags[0], np.ones(mags.shape[1], dtype=bool)])
    top = np.array(probes + [n_cap])[np.argmax(small, axis=0)]
    return np.where(mags[0] == 0.0, 0, top)


def inverse_at_point(theta, w, grid):
    """Inverse transform at a single physical point (any d; spot use),
    summed over the index box theta declares (a theta that declares none
    is refused before it is called)."""
    d = theta.d
    w = np.asarray(w, dtype=float)
    Y, s = w[: 2 * d], w[-1]
    n, m = box_pairs(d, _index_box(theta), theta.band)
    values = theta(n[:, None], m[:, None], grid.lam)     # (pairs, lambda)
    total = 0.0 + 0.0j
    for il, lam in enumerate(grid.lam):
        acc = sum(values[q, il] * wigner_eval(tuple(n[q]), tuple(m[q]), lam, Y)
                  for q in np.flatnonzero(values[:, il]))
        total += grid.weights[il] * abs(lam) ** d * np.exp(1j * s * lam) * acc
    return complex(total * 2.0 ** (d - 1) / math.pi ** (d + 1))


def inverse_on_grid(theta, grid, n_max=None, extents=(6.0, 6.0, 6.0), points=(33, 33, 33),
                    n_cap=600, assume_symmetric=False):
    """Inverse transform sampled on a full (y, eta, s) grid (d = 1).

    The route follows the declared support; a theta with neither a band
    nor a box is refused before it is called.  A banded theta is summed as
    its channels k = m - n on the distinct values of |Y|^2 of the grid
    (:func:`hfourier.wigner.wigner_series_radial`; a diagonal is the
    channel k = 0).  Its diagonal extent n_top adapts per lambda up to
    ``n_cap``, and never past a declared box (one probe call for every
    lambda).  Where n_top stops at ``n_cap`` short of the support's end, the
    skipped remainder is bounded by 1/(32 pi^2 n_cap) per unit lambda mass
    and folded into the reported tail, and a diagonal adds its boundary-
    kernel estimate; an n_top at the box leaves no remainder.  theta is
    evaluated once on the band box of the largest n_top, each lambda
    zeroed past its own.  Otherwise theta (a
    table, or a multiplier of one) is evaluated once on its declared box,
    and its slices chi = sum_{n,m} theta_nm W_nm go through the 45-degree
    rotation of :func:`hfourier.wigner.wigner_series_dense`.  The lambda
    stage then integrates the stacked slices, and for a banded theta one
    gather sums the channels on the grid, each times e^{-i k phi}.

    ``assume_symmetric=True`` skips the negative-lambda half and doubles
    the real part and the capped remainder; the caller asserts that
    theta(n,m,-lam) = conj(theta(n,m,lam)), as for transforms of real fields.

    No route reads ``n_max``; it stays only for callers that pass it
    positionally.  One other than a declared box is refused before theta
    is called, and otherwise it is ignored.

    Returns (SampledField, tail_estimate).
    """
    d = theta.d
    if d != 1:
        raise ValueError("grid inverse implemented for d = 1")
    _k_reach(theta)
    if n_max is not None and theta.box is not None and n_max != theta.box:
        raise ValueError(f"n_max {n_max} contradicts the index box {theta.box} "
                         f"that theta {theta.label!r} declares")
    y_axis = np.linspace(-extents[0], extents[0], points[0])
    e_axis = np.linspace(-extents[1], extents[1], points[1])
    s_axis = np.linspace(-extents[2], extents[2], points[2])

    cols = np.flatnonzero(grid.lam > 0) if assume_symmetric else np.arange(len(grid.lam))
    lam_list = grid.lam[cols]
    tail = 0.0
    if theta.band is None:
        # theta once on its box, as one broadcast call
        j = np.arange(theta.box + 1)
        rows = np.broadcast_to(theta(j[:, None, None, None], j[None, :, None, None], lam_list),
                               (theta.box + 1, theta.box + 1, len(lam_list)))
        live = np.flatnonzero(np.any(rows, axis=(0, 1)))
        chi = np.zeros((len(lam_list), points[0], points[1]), dtype=complex)
        chi[live] = wigner_series_dense(rows[:, :, live], lam_list[live], y_axis, e_axis)
        out = _oscillatory_lambda_stage(chi, lam_list, s_axis)
    else:
        box = math.inf if theta.box is None else theta.box
        n_tops = _n_extent(theta, lam_list, int(min(n_cap, box)))
        capped = (n_tops == n_cap) & (n_cap < box)
        # a running sum in lambda order (np.sum's pairwise order moves the last bit)
        tail = sum((grid.weights[cols] / (8.0 * n_cap))[capped & (np.abs(lam_list) * n_cap < 4.0)]
                   .tolist(), 0.0)
        K = int(n_tops.max())
        # the channels k = m - n on the distinct radii, theta once on the band box
        B = theta.band
        r2, ring = np.unique((y_axis[:, None] ** 2 + e_axis[None, :] ** 2).ravel(),
                             return_inverse=True)
        k, j = np.ogrid[-B:B + 1, :K + 1]
        n, m = (j - np.minimum(k, 0))[..., None, None], (j + np.maximum(k, 0))[..., None, None]
        rows = np.where(np.maximum(n, m)[..., 0] <= n_tops, theta(n, m, lam_list), 0.0)
        chi = wigner_series_radial(rows, lam_list, r2)                 # (lambda, k, radii)
        if B == 0 and capped.any():
            chi[capped, 0] += _diagonal_tail_correction(theta, lam_list[capped], n_cap,
                                                        np.sqrt(r2))
        # sgn(lam) mirrors phi: channel k of a negative lambda goes with e^{+i k phi}
        neg = lam_list < 0
        chi[neg] = chi[neg, ::-1]
        radial = _oscillatory_lambda_stage(chi, lam_list, s_axis)  # (k, radii, s)
        out = radial[B][ring]
        phi = np.arctan2(e_axis[None, :], y_axis[:, None]).reshape(-1, 1)
        for c in range(-B, B + 1):
            if c:
                out += np.exp(-1j * c * phi) * radial[B + c][ring]
        out = out.reshape(points[0], points[1], -1)

    if assume_symmetric:
        # theta(n, m, -lam) = conj(theta(n, m, lam)): the other branch, remainder included
        out = 2.0 * out.real
        tail *= 2.0
    out *= 2.0 ** (d - 1) / math.pi ** (d + 1)
    # uncovered |lam| < lambda_min strip, crude mass bound
    tail += 2.0 * grid.lambda_min / (8.0 * math.pi**2)
    fld = SampledField(out, 1, tuple(extents))
    return fld, tail


def _cubic_weights(t):
    """4-point Lagrange weights on the nodes -1, 0, 1, 2 at offset t in [0, 1]."""
    return (
        -t * (t - 1) * (t - 2) / 6.0,
        (t + 1) * (t - 1) * (t - 2) / 2.0,
        -(t + 1) * t * (t - 2) / 2.0,
        (t + 1) * t * (t - 1) / 6.0,
    )


def _resample_log(lam_src, lam_dst):
    """Matrix (len(lam_dst), len(lam_src)) of cubic (4-point Lagrange)
    weights, uniform in log lambda, taking samples on ``lam_src`` to
    ``lam_dst``; both grids on one sign branch, ascending."""
    t_src = np.log(lam_src)
    h = t_src[1] - t_src[0]
    u = (np.log(lam_dst) - t_src[0]) / h
    base = np.clip(np.floor(u).astype(int), 1, len(lam_src) - 3)
    out = np.zeros((len(lam_dst), len(lam_src)))
    row = np.arange(len(lam_dst))
    for offset, w in zip((-1, 0, 1, 2), _cubic_weights(u - base)):
        out[row, base + offset] = w
    return out


# lambda rows per block of the phase table
_PHASE_BLOCK = 32


def _phase_table(lam, s):
    """e^{i lam_r s_c} for an ascending uniform ``lam`` (rows r) and the
    points ``s`` (columns c).

    With lam_r = lam_0 + r h and r = bB + o (B = 32), the table is the
    product of e^{i lam_{bB} s}, exact at the first row of each block, and
    e^{i o h s}, exact at the B offsets within a block: one complex product
    per entry in place of an exponential.
    """
    step = (lam[-1] - lam[0]) / (len(lam) - 1)
    head = np.exp(1j * np.outer(lam[::_PHASE_BLOCK], s))
    offset = np.exp(1j * np.outer(step * np.arange(_PHASE_BLOCK), s))
    table = head[:, None, :] * offset
    return table.reshape(-1, len(s))[: len(lam)]


def _oscillatory_lambda_stage(chi, lam_list, s_axis):
    """Integrate chi(., lam) |lam| e^{i s lam} d lam.

    ``chi`` stacks one slice per lambda of ``lam_list`` on its first axis
    (zero for slices that carry no weight); the result has shape
    chi.shape[1:] + (len(s_axis),).  The angular stage is smooth on the
    geometric grid, but e^{i s lam} needs a lambda spacing tied to the
    largest |s|.  Below the split point (where the geometric spacing still
    resolves the phase) the source grid integrates directly; above it the
    slices are resampled onto a dense uniform grid (cubic in log lambda,
    where they are smooth) and summed by composite Simpson.  Both pieces
    are linear in the source slices, so they fold into one (lambda, s)
    matrix and one contraction per branch.  On the dense grid that matrix
    is W^T E: W the real resampling matrix times lam and the Simpson
    weights, E = e^{i s lam} the phase table of :func:`_phase_table`, and
    W^T E one real product with the real view of E.  ``s_axis`` is
    symmetric about 0 (a linspace from -S to S): the matrix is real weights
    times e^{i s lam}, so it is built for s >= 0 and its -s columns are the
    conjugates.
    """
    s_max = float(np.abs(s_axis).max())
    h_d = min(0.02, 2.0 * math.pi / (48.0 * max(s_max, 1.0)))
    out = np.zeros(chi.shape[1:] + (len(s_axis),), dtype=complex)
    half = len(s_axis) // 2
    s_half = s_axis[half:]

    for sign in (+1.0, -1.0):
        cols = np.flatnonzero(sign * lam_list > 0)
        if len(cols) == 0:
            continue
        cols = cols[np.argsort(np.abs(lam_list[cols]))]
        lam_pos = np.abs(lam_list[cols])
        slices = chi[cols]
        h_t = math.log(lam_pos[1] / lam_pos[0])
        lam_split = h_d / max(math.expm1(h_t), 1e-300)
        j = int(np.searchsorted(lam_pos, lam_split))
        j = min(max(j, 4), len(lam_pos) - 1)

        # geometric piece [lam_min, lam_j]: phase resolved by the source grid
        sub = lam_pos[: j + 1]
        wts = simpson_log_weights(len(sub), h_t) * sub
        kernel = np.zeros((len(lam_pos), len(s_half)), dtype=complex)
        kernel[: j + 1] = (sub * wts)[:, None] * np.exp(1j * sign * np.outer(sub, s_half))
        if j < len(lam_pos) - 1:
            lo, hi = lam_pos[j], lam_pos[-1]
            count = max(int((hi - lo) / h_d) | 1, 5)
            lam_dense = np.linspace(lo, hi, count)
            wts_d = simpson_log_weights(count, lam_dense[1] - lam_dense[0])
            weights = _resample_log(lam_pos, lam_dense).T
            weights *= lam_dense * wts_d
            phase = _phase_table(lam_dense, sign * s_half)
            kernel += (weights @ phase.view(float)).view(complex)
        kernel = np.concatenate([np.conj(kernel[:, ::-1][:, :half]), kernel], axis=1)
        contrib = np.tensordot(slices, kernel, axes=([0], [0]))

        # covered range starts at lam_min; the strip (0, lam_min] carries the
        # boundary limit of chi |lam|, recovered by sqrt(lam) extrapolation
        F1 = slices[0] * lam_pos[0]
        F2 = slices[1] * lam_pos[1]
        F0 = sqrt_richardson(lam_pos[0], F1, lam_pos[1], F2)
        contrib += (lam_pos[0] * 0.5 * (F0 + F1))[..., None] * np.ones(len(s_axis))

        out += contrib
    return out


def transpose_transform(theta, grid, **kw):
    """Transposed transform on a grid: the inverse with reflected (eta, s),
    scaled by pi^{d+1} / 2^{d-1}."""
    d = theta.d
    fld, tail = inverse_on_grid(theta, grid, **kw)
    refl = fld.samples[:, ::-1, ::-1]
    scale = math.pi ** (d + 1) / 2.0 ** (d - 1)
    return SampledField(scale * refl, fld.d, fld.extents), tail * scale


# ---------------------------------------------------------------------------
# norms, products, multipliers
# ---------------------------------------------------------------------------

def plancherel_norms(fld, table):
    """(physical L2 norm squared, frequency L2 norm squared with tail)."""
    phys = fld.l2_norm_sq()
    fn = table.as_freq_function()

    def sq(n, m, lam):
        v = fn(n, m, lam)
        return (v * np.conj(v)).real

    wrapped = FreqFunction(sq, d=table.d, box=table.n_max)
    res = integrate(wrapped, table.grid)
    return phys, res


def spectral_product(theta1, theta2, n, m, lam):
    """Interior product sum_l theta1(n, l, lam) theta2(l, m, lam), summed
    completely: each l_j over [max(0, n_j - r1, m_j - r2), min(n_j + r1,
    m_j + r2, box1, box2)], with r the reach (band, else box) and box the
    index box (None: no bound) that each operand declares; an operand
    that declares neither is refused."""
    d = theta1.d
    if theta2.d != d:
        raise ValueError(f"dimension mismatch: theta1 has d = {d}, theta2 d = {theta2.d}")
    r1, r2 = _k_reach(theta1), _k_reach(theta2)
    n, m = (np.asarray(v, dtype=int).reshape(d) for v in (n, m))
    lo = np.maximum(0, np.maximum(n - r1, m - r2))
    hi = np.minimum(n + r1, m + r2)
    hi = np.minimum(hi, min([t.box for t in (theta1, theta2) if t.box is not None], default=hi))
    ell = np.stack(np.meshgrid(*map(np.arange, lo, hi + 1), indexing="ij"), axis=-1).reshape(-1, d)
    return complex(np.sum(theta1(n, ell, lam) * theta2(ell, m, lam)))


def spectral_product_boundary(theta1, theta2, xdot, k):
    """Boundary product sum_k' theta1(x., k') theta2(x., k - k') (d = 1),
    over every k' with |k'| and |k - k'| within the reach (band, else box)
    of theta1 and theta2."""
    if len(xdot) != 1:
        raise ValueError("boundary product implemented for d = 1")
    r1, r2 = _k_reach(theta1), _k_reach(theta2)
    kp = np.arange(max(-r1, k[0] - r2), min(r1, k[0] + r2) + 1)[:, None]
    return complex(np.sum(theta1.at_boundary(xdot, kp) * theta2.at_boundary(xdot, k - kp)))


def multiplier_apply(a, theta):
    """Spectral multiplier: pointwise multiplication by a(4 |lam| (2|m| + d)).

    ``a`` is a scalar function on [0, inf); a(r) = exp(-t r) realizes the
    heat semigroup, a(r) = r the (negated) sub-Laplacian.
    """
    d = theta.d

    def interior(n, m, lam):
        r = 4.0 * np.abs(lam) * (2.0 * m.sum(axis=-1) + d)
        return np.asarray(a(r), dtype=complex) * theta(n, m, lam)

    # a pointwise multiplier keeps the index support of theta; the symbol
    # vanishes on the boundary (lam -> 0 at fixed k)
    boundary = (lambda xdot, k: complex(a(0.0)) * theta.at_boundary(xdot, k)) \
        if theta.has_boundary else None
    return FreqFunction(interior, d=d, boundary=boundary, band=theta.band, box=theta.box,
                        label=f"{theta.label}:mult")
