"""Sampled fields on uniform symmetric grids over H^d = T*R^d x R.

A ``SampledField`` stores complex samples on the tensor grid
(y_1..y_d, eta_1..eta_d, s), each axis symmetric about the origin.  The
binary container format (magic ``HFLD1\\n``) is documented in the README;
a CSV import/export path exists for d = 1.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledField",
    "YField",
    "read_field",
    "write_field",
    "field_from_csv",
    "field_to_csv",
]

_MAGIC = b"HFLD1\n"


def _axis(extent, points):
    # symmetric, odd count, includes 0
    return np.linspace(-extent, extent, points)


def _check_extents(extents):
    if not all(math.isfinite(L) and L > 0 for L in extents):
        raise ValueError(f"extents must be finite and positive, got {tuple(extents)}")


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
        _check_extents(self.extents)

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

    # ---- reductions ----------------------------------------------------
    def integral(self):
        return self.samples.sum() * self.cell_volume

    def l1_norm(self):
        return float(np.abs(self.samples).sum() * self.cell_volume)

    def l2_norm_sq(self):
        return float((np.abs(self.samples) ** 2).sum() * self.cell_volume)

    def is_real(self):
        """True when every imaginary part is at most 1e-13 of the largest modulus."""
        scale = max(np.abs(self.samples).max(), 1e-300)
        return float(np.abs(self.samples.imag).max()) <= 1e-13 * scale


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
        _check_extents(self.extents)

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
    """Read a container written by :func:`write_field`.

    Raises ValueError naming ``path`` for a bad magic, a truncated header,
    an implausible dimension, a payload shorter or longer than the header's
    axis lengths, a non-finite sample, axis lengths or extents that
    :class:`SampledField` refuses, or spacings inconsistent with the lengths
    and extents.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != _MAGIC:
        raise ValueError(f"{path}: not a field container (bad magic)")
    try:
        (d,) = struct.unpack_from("<I", raw, 6)
        if d < 1 or d > 4:
            raise ValueError(f"{path}: implausible dimension {d}")
        rank = 2 * d + 1
        shape = struct.unpack_from(f"<{rank}I", raw, 10)
        spac = struct.unpack_from("<3d", raw, 10 + 4 * rank)
        ext = struct.unpack_from("<3d", raw, 34 + 4 * rank)
    except struct.error:
        raise ValueError(f"{path}: truncated header") from None
    start = 58 + 4 * rank
    count = math.prod(shape)
    if len(raw) - start != 16 * count:
        raise ValueError(f"{path}: payload of {len(raw) - start} bytes, "
                         f"expected {16 * count} for axis lengths {shape}")
    payload = np.frombuffer(raw, dtype=np.complex128, count=count, offset=start)
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: non-finite sample")
    try:
        fld = SampledField(payload.reshape(shape).copy(), d, tuple(ext))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.allclose(fld.spacings, spac, rtol=1e-12, atol=0):
        raise ValueError(f"{path}: header spacings inconsistent with lengths/extents")
    return fld


def _repr_tokens(values):
    """``repr`` of every entry of ``values``, as a list in C order.

    Each distinct magnitude is formatted once and a ``-`` prefixed where
    the sign bit is set, which is ``repr`` exactly for +-0.0, +-inf, nan
    and subnormals.  A real field's table holds each |re| and |im| at lam
    and -lam, so one slice of it needs half a ``repr`` per entry."""
    values = np.ravel(values)
    mag, inv = np.unique(np.abs(values), return_inverse=True)
    pos = list(map(repr, mag.tolist()))
    signed = np.array(pos + ["-" + tok for tok in pos], dtype=object)
    return signed[inv + len(pos) * (np.signbit(values) & ~np.isnan(values))].tolist()


def _write_csv(path, header, columns):
    """Write the broadcast of ``columns`` (arrays of two or more axes after
    broadcasting) as the columns of a CSV under ``header``, rows in C
    order, each number as its shortest round-trip repr.  One slice of the
    leading axis at a time, each column's tokens (:func:`_repr_tokens` of
    its slice) are slice-assigned between the fixed ``,`` and newline
    separators of one token list, joined and written, so the memory held
    is that of one slice."""
    shape = np.broadcast_shapes(*(np.shape(col) for col in columns))
    cells = [np.broadcast_to(col, shape) for col in columns]
    width = 2 * len(cells)
    rows = math.prod(shape[1:])
    line = [","] * (width * rows)
    line[width - 1::width] = ["\n"] * rows
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(shape[0]):
            for j, cell in enumerate(cells):
                line[2 * j::width] = _repr_tokens(cell[i])
            fh.write("".join(line))


def field_to_csv(fld, path):
    """d = 1 export with columns y, eta, s, re, im (round-trip exact)."""
    if fld.d != 1:
        raise ValueError("CSV export is defined for d = 1 only")
    _write_csv(path, "y,eta,s,re,im", [fld.y_axis[:, None, None], fld.eta_axis[:, None],
                                       fld.s_axis, fld.samples.real, fld.samples.imag])


def field_from_csv(path):
    """Read a d = 1 CSV written by :func:`field_to_csv`; rows in any order.

    Raises ValueError naming ``path`` for a wrong column count, a
    non-finite entry, an axis that is not uniform and symmetric about the
    origin (1e-9 relative), or a duplicate or missing grid point.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.shape[1] != 5:
        raise ValueError(f"{path}: expected columns y, eta, s, re, im")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry")
    axes = [np.unique(data[:, j]) for j in range(3)]
    for ax in axes:
        L = ax[-1]
        if len(ax) < 3 or np.abs(ax - _axis(L, len(ax))).max() > 1e-9 * abs(L):
            raise ValueError(f"{path}: grid axes must be uniform and symmetric about the origin")
    shape = tuple(len(ax) for ax in axes)
    flat = np.ravel_multi_index(tuple(np.searchsorted(ax, data[:, j]) for j, ax in enumerate(axes)),
                                shape)
    if np.bincount(flat).max() > 1:
        raise ValueError(f"{path}: duplicate (y, eta, s) rows")
    if flat.size != math.prod(shape):
        raise ValueError(f"{path}: CSV does not cover the full tensor grid")
    grid = np.zeros(math.prod(shape), dtype=complex)
    grid.real[flat] = data[:, 3]
    grid.imag[flat] = data[:, 4]
    return SampledField(grid.reshape(shape), 1, tuple(float(ax[-1]) for ax in axes))
