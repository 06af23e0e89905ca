"""Sampled fields on uniform symmetric grids over H^d = T*R^d x R.

A ``SampledField`` stores complex samples on the tensor grid
(y_1..y_d, eta_1..eta_d, s), each axis symmetric about the origin.  The
binary container format (magic ``HFLD1\\n``) is documented in the README;
a CSV import/export path exists for d = 1.
"""

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledField",
    "YField",
    "cubic_weights",
    "read_field",
    "write_field",
    "field_from_csv",
    "field_to_csv",
]

_MAGIC = b"HFLD1\n"


def cubic_weights(t):
    """4-point Lagrange weights on the nodes -1, 0, 1, 2 at offset t in [0, 1]."""
    return (
        -t * (t - 1) * (t - 2) / 6.0,
        (t + 1) * (t - 1) * (t - 2) / 2.0,
        -(t + 1) * t * (t - 2) / 2.0,
        (t + 1) * t * (t - 1) / 6.0,
    )


def _axis(extent, points):
    # symmetric, odd count, includes 0
    return np.linspace(-extent, extent, points)


@dataclass
class SampledField:
    """Complex samples of a function on a uniform (y, eta, s) grid.

    Attributes
    ----------
    samples : ndarray, complex, shape (Ny,)*d + (Ne,)*d + (Ns,)
    d : int
    extents : tuple (L_y, L_eta, L_s), half-width per block
    """

    samples: np.ndarray
    d: int
    extents: tuple

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 2 * self.d + 1:
            raise ValueError("sample tensor rank must be 2 d + 1")
        ny = self.samples.shape[0]
        ne = self.samples.shape[self.d]
        for ax in range(self.d):
            if self.samples.shape[ax] != ny or self.samples.shape[self.d + ax] != ne:
                raise ValueError("y axes and eta axes must each share one length")
        for n in self.samples.shape:
            if n < 2 or n % 2 == 0:
                raise ValueError("axis lengths must be odd and >= 3")
        for L in self.extents:
            if L <= 0:
                raise ValueError("extents must be positive")

    # ---- grid geometry -------------------------------------------------
    @property
    def points(self):
        return (self.samples.shape[0], self.samples.shape[self.d], self.samples.shape[-1])

    @property
    def spacings(self):
        ny, ne, ns = self.points
        Ly, Le, Ls = self.extents
        return (2 * Ly / (ny - 1), 2 * Le / (ne - 1), 2 * Ls / (ns - 1))

    @property
    def y_axis(self):
        return _axis(self.extents[0], self.points[0])

    @property
    def eta_axis(self):
        return _axis(self.extents[1], self.points[1])

    @property
    def s_axis(self):
        return _axis(self.extents[2], self.points[2])

    @property
    def cell_volume(self):
        hy, he, hs = self.spacings
        return hy**self.d * he**self.d * hs

    def same_grid(self, other):
        return (
            self.d == other.d
            and self.samples.shape == other.samples.shape
            and np.allclose(self.extents, other.extents)
        )

    # ---- construction --------------------------------------------------
    @classmethod
    def from_function(cls, fn, d=1, extents=(6.0, 6.0, 6.0), points=(33, 33, 33)):
        """Sample ``fn(y_1, .., y_d, eta_1, .., eta_d, s)`` on the grid."""
        axes = (
            [_axis(extents[0], points[0])] * d
            + [_axis(extents[1], points[1])] * d
            + [_axis(extents[2], points[2])]
        )
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(np.asarray(fn(*mesh), dtype=complex), d, tuple(extents))

    @classmethod
    def zeros_like(cls, other):
        return cls(np.zeros_like(other.samples), other.d, other.extents)

    @classmethod
    def from_config(cls, fn, cfg, grid=None):
        g = grid if grid is not None else cfg.phys_grid
        return cls.from_function(fn, d=cfg.d, extents=g.extents, points=g.points)

    # ---- reductions ----------------------------------------------------
    def integral(self):
        return self.samples.sum() * self.cell_volume

    def l1_norm(self):
        return float(np.abs(self.samples).sum() * self.cell_volume)

    def l2_norm_sq(self):
        return float((np.abs(self.samples) ** 2).sum() * self.cell_volume)

    def is_real(self, tol=1e-13):
        scale = max(np.abs(self.samples).max(), 1e-300)
        return float(np.abs(self.samples.imag).max()) <= tol * scale

    # ---- interpolation -------------------------------------------------
    def interp(self, pts):
        """Separable cubic interpolation at points of shape (..., 2 d + 1).

        Four-point Lagrange weights per axis; zero extension outside the
        box.  On-grid coordinates reproduce samples exactly.
        """
        pts = np.asarray(pts, dtype=float)
        shape = pts.shape[:-1]
        flat = pts.reshape(-1, 2 * self.d + 1)
        n = flat.shape[0]
        hy, he, hs = self.spacings
        steps = [hy] * self.d + [he] * self.d + [hs]
        L = [self.extents[0]] * self.d + [self.extents[1]] * self.d + [self.extents[2]]
        sizes = self.samples.shape

        base, frac = [], []
        for ax in range(2 * self.d + 1):
            u = (flat[:, ax] + L[ax]) / steps[ax]
            b = np.floor(u).astype(np.int64)
            t = u - b
            # fold exact upper edge back into range
            hit = (b == sizes[ax] - 1) & (t < 1e-12)
            b = np.where(hit, b - 1, b)
            t = np.where(hit, 1.0, t)
            base.append(b)
            frac.append(t)

        weights = [cubic_weights(t) for t in frac]
        out = np.zeros(n, dtype=complex)
        pad = self.samples  # gather with explicit masks, no actual padding
        from itertools import product

        for combo in product(range(4), repeat=2 * self.d + 1):
            w = np.ones(n)
            idx = []
            ok = np.ones(n, dtype=bool)
            for ax, r in enumerate(combo):
                i = base[ax] + (r - 1)
                ok &= (i >= 0) & (i < sizes[ax])
                idx.append(np.clip(i, 0, sizes[ax] - 1))
                w = w * weights[ax][r]
            vals = pad[tuple(idx)]
            out += np.where(ok, w, 0.0) * vals
        return out.reshape(shape)


@dataclass
class YField:
    """Complex samples of a function of Y = (y, eta) only (no vertical axis)."""

    samples: np.ndarray
    d: int
    extents: tuple  # (L_y, L_eta)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 2 * self.d:
            raise ValueError("Y-field tensor rank must be 2 d")

    @property
    def spacings(self):
        ny = self.samples.shape[0]
        ne = self.samples.shape[self.d]
        return (2 * self.extents[0] / (ny - 1), 2 * self.extents[1] / (ne - 1))

    @property
    def y_axis(self):
        return _axis(self.extents[0], self.samples.shape[0])

    @property
    def eta_axis(self):
        return _axis(self.extents[1], self.samples.shape[self.d])

    @property
    def cell_area(self):
        hy, he = self.spacings
        return hy**self.d * he**self.d

    @classmethod
    def from_function(cls, fn, d=1, extents=(6.0, 6.0), points=(33, 33)):
        axes = [_axis(extents[0], points[0])] * d + [_axis(extents[1], points[1])] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(np.asarray(fn(*mesh), dtype=complex), d, tuple(extents))


# ---- binary container ----------------------------------------------------
# layout (little endian):
#   6 bytes  magic "HFLD1\n"
#   u32      d
#   u32[2d+1] axis lengths, C order (y axes, eta axes, s)
#   f64[3]   spacings (h_y, h_eta, h_s)
#   f64[3]   extents  (L_y, L_eta, L_s)
#   complex128 payload, C order


def write_field(fld, path):
    shape = fld.samples.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", fld.d))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(struct.pack("<3d", *fld.spacings))
        fh.write(struct.pack("<3d", *fld.extents))
        fh.write(np.ascontiguousarray(fld.samples, dtype=np.complex128).tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _MAGIC:
            raise ValueError("not a field container (bad magic)")
        (d,) = struct.unpack("<I", fh.read(4))
        if d < 1 or d > 4:
            raise ValueError(f"implausible dimension {d}")
        rank = 2 * d + 1
        shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        spac = struct.unpack("<3d", fh.read(24))
        ext = struct.unpack("<3d", fh.read(24))
        count = int(np.prod(shape))
        payload = np.frombuffer(fh.read(count * 16), dtype=np.complex128, count=count)
        fld = SampledField(payload.reshape(shape).copy(), d, tuple(ext))
        got = fld.spacings
        if not np.allclose(got, spac, rtol=1e-12, atol=0):
            raise ValueError("header spacings inconsistent with lengths/extents")
        return fld


def field_to_csv(fld, path):
    """d = 1 export with columns y, eta, s, re, im (round-trip exact)."""
    if fld.d != 1:
        raise ValueError("CSV export is defined for d = 1 only")
    y, e, s = fld.y_axis, fld.eta_axis, fld.s_axis
    with open(path, "w") as fh:
        fh.write("y,eta,s,re,im\n")
        for i, yv in enumerate(y):
            for j, ev in enumerate(e):
                for k, sv in enumerate(s):
                    v = fld.samples[i, j, k]
                    fh.write(
                        f"{float(yv)!r},{float(ev)!r},{float(sv)!r},"
                        f"{float(v.real)!r},{float(v.imag)!r}\n"
                    )


def field_from_csv(path):
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim != 2 or data.shape[1] != 5:
        raise ValueError("expected columns y, eta, s, re, im")
    ys = np.unique(data[:, 0])
    es = np.unique(data[:, 1])
    ss = np.unique(data[:, 2])
    for ax in (ys, es, ss):
        if len(ax) < 3 or not np.allclose(ax + ax[::-1], 0.0, atol=1e-9):
            raise ValueError("grid must be symmetric about the origin")
    grid = np.full((len(ys), len(es), len(ss)), np.nan, dtype=complex)
    iy = np.searchsorted(ys, data[:, 0])
    ie = np.searchsorted(es, data[:, 1])
    ik = np.searchsorted(ss, data[:, 2])
    grid[iy, ie, ik] = data[:, 3] + 1j * data[:, 4]
    if np.isnan(grid.real).any():
        raise ValueError("CSV does not cover the full tensor grid")
    return SampledField(grid, 1, (float(ys[-1]), float(es[-1]), float(ss[-1])))
