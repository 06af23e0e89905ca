import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hfourier.fields import (SampledField, YField, _write_csv, field_from_csv, field_to_csv,
                             read_field, write_field)
from hfourier.freq_space import LambdaGrid
from hfourier.heisenberg import (
    apply_phys_op,
    convolve,
    dilate,
    group_inverse,
    group_mul,
)
from hfourier.transform import SpectralTable, _csv_columns, table_to_csv


def gauss(y, e, s):
    return np.exp(-(y**2 + e**2 + s**2))


def small_field(fn=gauss, extent=5.0, points=33):
    return SampledField.from_function(fn, 1, (extent,) * 3, (points,) * 3)


def group_points(d, count, bound):
    """``count`` points of H^d with coordinates in [-bound, bound]."""
    return arrays(float, (count, 2 * d + 1), elements=st.floats(-bound, bound))


dims = st.sampled_from([1, 2])


# ---- group law -------------------------------------------------------------

def test_group_law_example():
    assert np.allclose(group_mul([1, 0, 0], [0, 1, 0]), [1, 1, -2])


@settings(max_examples=50)
@given(d=dims, data=st.data())
def test_inverse_is_negation(d, data):
    (w,) = data.draw(group_points(d, 1, 4.0))
    assert np.allclose(group_mul(w, group_inverse(w), d=d), 0.0, atol=1e-14)


@settings(max_examples=100)
@given(d=dims, data=st.data())
def test_associativity(d, data):
    a, b, c = data.draw(group_points(d, 3, 4.0))
    lhs = group_mul(group_mul(a, b, d=d), c, d=d)
    rhs = group_mul(a, group_mul(b, c, d=d), d=d)
    assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=50)
@given(d=dims, t=st.floats(0.5, 3.0), data=st.data())
def test_dilation(d, t, data):
    assert np.allclose(dilate(2.0, [1, 1, 1]), [2, 2, 4])
    w = np.array([0.3, -1.0, 0.5])
    assert np.allclose(dilate(1.0, w), w)
    a, b = data.draw(group_points(d, 2, 2.0))
    lhs = dilate(t, group_mul(a, b, d=d), d=d)
    rhs = group_mul(dilate(t, a, d=d), dilate(t, b, d=d), d=d)
    assert np.abs(lhs - rhs).max() < 1e-12
    with pytest.raises(ValueError):
        dilate(-1.0, w)


def test_dilation_d2():
    w = np.array([1.0, 2.0, 0.5, -1.0, 3.0])
    out = dilate(2.0, w, d=2)
    assert np.allclose(out, [2, 4, 1, -2, 12])


# ---- convolution -----------------------------------------------------------

def lattice_reference(A, a, shift, B, b, f, g):
    """Semi-analytic f * g for f = A(Y) e^{-a (s - shift)^2}, g = B(Y) e^{-b s^2}.

    The Y' lattice sum is the one ``convolve`` makes (f is zero off its Y
    box); the s' integral is in closed form,
    sqrt(pi/(a+b)) exp(-ab/(a+b) (s + c - shift)^2) with the twist
    c = 2(<eta', y> - <eta, y'>).  Returns the samples on the output
    s-axis of half-width L_f + L_g and the whole-line L1 mass of the
    result when A B >= 0 (for a Gaussian the lattice sum in s equals the
    integral pi/sqrt(ab) to rounding).
    """
    d = f.d
    axes = [f.y_axis] * d + [f.eta_axis] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    Av, Bv = A(*mesh), B(*mesh)
    y, eta = np.stack(mesh[:d], -1), np.stack(mesh[d:], -1)
    n_out = f.points[-1] + g.points[-1] - 1
    s = np.linspace(-(f.extents[2] + g.extents[2]), f.extents[2] + g.extents[2], n_out)
    area = f.cell_volume / f.spacings[-1]
    mu = a * b / (a + b)
    out = np.zeros(Av.shape + (n_out,), dtype=complex)
    mass = 0.0
    for idx in np.ndindex(Av.shape):
        off = [i - (n - 1) // 2 for i, n in zip(idx, Av.shape)]
        dst = tuple(slice(max(0, o), n + min(0, o)) for o, n in zip(off, Av.shape))
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, Av.shape))
        yp = np.array([axes[j][idx[j]] for j in range(d)])
        ep = np.array([axes[d + j][idx[d + j]] for j in range(d)])
        c = 2.0 * ((y[dst] * ep).sum(-1) - (eta[dst] * yp).sum(-1))
        weight = Av[src] * Bv[idx]
        kernel = math.sqrt(math.pi / (a + b)) * np.exp(-mu * (s + c[..., None] - shift) ** 2)
        out[dst] += weight[..., None] * kernel
        mass += float(np.abs(weight).sum())
    return out * area, mass * area**2 * math.pi / math.sqrt(a * b)


def radial(a):
    return lambda *Y: np.exp(-a * sum(v**2 for v in Y))


def with_s(A, a, shift=0.0):
    return lambda *w: A(*w[:-1]) * np.exp(-a * (w[-1] - shift) ** 2)


def skew_f(y, e):
    return (1 + 0.4 * y - 0.3j * e) * np.exp(-((y - 0.5) ** 2) - e**2)


def skew_g(y, e):
    return (1 + 0.2j * y * e) * np.exp(-1.5 * (y**2 + e**2))


@pytest.fixture(scope="module")
def gauss_pair():
    f = SampledField.from_function(with_s(radial(1.0), 1.0), 1, (6, 6, 6), (33, 33, 33))
    g = SampledField.from_function(with_s(radial(1.5), 1.5), 1, (6, 6, 6), (33, 33, 33))
    conv, tail = convolve(f, g)
    ref, mass = lattice_reference(radial(1.0), 1.0, 0.0, radial(1.5), 1.5, f, g)
    return conv, tail, ref, mass


def test_convolve_zero():
    f = small_field()
    z = SampledField.zeros_like(f)
    out, tail = convolve(f, z)
    assert np.abs(out.samples).max() == 0.0 and tail == 0.0


def test_convolve_gaussian_origin():
    f = SampledField.from_function(gauss, 1, (6, 6, 6), (33, 33, 33))
    c, _ = convolve(f, f)
    i0 = 16
    # closed form: integral of exp(-2(y^2+eta^2+s^2)); s-axis |s| <= 12, 65 points
    assert c.extents == (6, 6, 12) and c.points == (33, 33, 65)
    assert c.samples[i0, i0, 32].real == pytest.approx((math.pi / 2) ** 1.5, abs=1e-10)
    assert np.abs(c.samples.imag).max() < 1e-14


def test_convolve_gaussian_pair_reference(gauss_pair):
    conv, _, ref, _ = gauss_pair
    assert np.abs(conv.samples - ref).max() <= 1e-10


def test_convolve_tail_covers_dropped_mass(gauss_pair):
    conv, tail, ref, mass = gauss_pair
    beyond = mass - ref.real.sum() * conv.cell_volume
    assert beyond == pytest.approx(1.0e-5, rel=0.05)
    assert tail >= beyond


def test_convolve_skew_pair_reference():
    # non-symmetric and complex: a flipped twist sign is off by 0.36
    f = SampledField.from_function(with_s(skew_f, 1.0, 0.3), 1, (6, 6, 6), (33, 33, 33))
    g = SampledField.from_function(with_s(skew_g, 1.5), 1, (6, 6, 6), (33, 33, 33))
    conv, _ = convolve(f, g)
    ref, _ = lattice_reference(skew_f, 1.0, 0.3, skew_g, 1.5, f, g)
    assert np.abs(conv.samples - ref).max() <= 1e-10


def test_convolve_d2_reference():
    def A(y1, y2, e1, e2):
        return (1 + 0.4 * y1 - 0.3j * e2) * np.exp(-((y1 - 0.5) ** 2) - y2**2 - e1**2 - e2**2)

    def B(y1, y2, e1, e2):
        return (1 + 0.2j * y2 * e1) * radial(1.5)(y1, y2, e1, e2)

    ext, pts = (2.0, 2.0, 6.0), (5, 5, 33)
    f = SampledField.from_function(with_s(A, 1.0, 0.3), 2, ext, pts)
    g = SampledField.from_function(with_s(B, 1.5), 2, ext, pts)
    conv, _ = convolve(f, g)
    ref, _ = lattice_reference(A, 1.0, 0.3, B, 1.5, f, g)
    assert conv.samples.shape == (5, 5, 5, 5, 65)
    assert np.abs(conv.samples - ref).max() <= 1e-10


def test_convolve_unequal_lattices_reference():
    # 17 y-points against 21 eta-points: a y/eta mix-up in the flattened
    # shift sum has no square lattice to hide in.  The s-axes keep the
    # other tests' h_s = 0.375, where the sampled s' sum matches the
    # reference's closed form to rounding (at h_s = 0.5 they part by 2e-5).
    f = SampledField.from_function(with_s(skew_f, 1.0, 0.3), 1, (4, 5, 6), (17, 21, 33))
    g = SampledField.from_function(with_s(skew_g, 1.5), 1, (4, 5, 4.5), (17, 21, 25))
    conv, _ = convolve(f, g)
    ref, _ = lattice_reference(skew_f, 1.0, 0.3, skew_g, 1.5, f, g)
    assert conv.samples.shape == (17, 21, 57)
    assert np.abs(conv.samples - ref).max() <= 1e-10


def test_convolve_memory_on_c03_pair():
    # c03's pair: the twist is built per block of vertical frequencies, never
    # for the whole period at once, and the result holds its 1.1 MB of
    # samples, not the 7.8 MB padded inverse FFT they were cut from
    f = SampledField.from_function(with_s(radial(1.0), 1.0), 1, (6, 6, 6), (33, 33, 33))
    g = SampledField.from_function(with_s(radial(1.5), 1.5), 1, (6, 6, 6), (33, 33, 33))
    convolve(f, g)
    tracemalloc.start()
    try:
        out = convolve(f, g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 45e6, peak
    assert held <= 2e6, held
    assert out[0].samples.nbytes < 1.2e6


def test_young_inequality():
    rng = np.random.default_rng(5)
    for _ in range(2):
        a, b = rng.uniform(0.8, 1.6, size=2)
        f = small_field(lambda y, e, s: np.exp(-a * (y**2 + e**2 + s**2)), points=21)
        g = small_field(lambda y, e, s: np.exp(-b * (y**2 + e**2 + s**2)), points=21)
        c, _ = convolve(f, g)
        assert c.l1_norm() <= f.l1_norm() * g.l1_norm() * (1 + 1e-10)


def test_convolve_grid_mismatch():
    f = small_field(points=21)
    g = small_field(points=33)
    with pytest.raises(ValueError):
        convolve(f, g)


def test_convolve_rejects_unequal_vertical_spacing():
    f = SampledField.from_function(gauss, 1, (5, 5, 5), (21, 21, 21))
    g = SampledField.from_function(gauss, 1, (5, 5, 4), (21, 21, 21))
    with pytest.raises(ValueError, match="h_s"):
        convolve(f, g)


def test_convolution_associativity_coarse():
    def bump(a):
        return lambda y, e, s: np.exp(-a * (y**2 + e**2 + s**2))

    f = SampledField.from_function(bump(1.2), 1, (4.2,) * 3, (21,) * 3)
    g = SampledField.from_function(bump(1.6), 1, (4.2,) * 3, (21,) * 3)
    h = SampledField.from_function(bump(2.0), 1, (4.2,) * 3, (21,) * 3)
    # the inner products carry |s| <= 8.4, so each outer one mixes s-extents
    lhs, _ = convolve(convolve(f, g)[0], h)
    rhs, _ = convolve(f, convolve(g, h)[0])
    scale = np.abs(lhs.samples).max()
    assert np.abs(lhs.samples - rhs.samples).max() / scale < 5e-2


# ---- operators -------------------------------------------------------------

def test_x_field_on_vertical_coordinate():
    f = SampledField.from_function(lambda y, e, s: s + 0j, 1, (4, 4, 4), (33, 33, 33))
    X = apply_phys_op("X", f)
    want = np.broadcast_to(2 * f.eta_axis[None, :, None], f.samples.shape)
    assert np.abs(X.samples - want)[4:-4, 4:-4, 4:-4].max() < 1e-12


def test_laplacian_on_quadratic():
    f = SampledField.from_function(lambda y, e, s: (y**2 + e**2) + 0j, 1, (4, 4, 4), (33, 33, 33))
    L = apply_phys_op("laplacian", f)
    assert np.abs(L.samples[4:-4, 4:-4, 4:-4] - 4.0).max() < 1e-10


def test_primitive_on_even_and_odd():
    fe = small_field()
    assert np.abs(apply_phys_op("P", fe).samples).max() == 0.0
    fo = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2)) * s * np.exp(-(s**2)), 1, (5, 5, 5), (65, 65, 65)
    )
    got = apply_phys_op("P", fo)
    want = SampledField.from_function(
        lambda y, e, s: -0.5 * np.exp(-(y**2 + e**2)) * np.exp(-(s**2)), 1, (5, 5, 5), (65, 65, 65)
    )
    # trapezoid accuracy is second order in the vertical spacing
    assert np.abs(got.samples - want.samples).max() < 3e-3


def test_primitive_is_the_cumulative_trapezoid():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(4)
    f = small_field(points=9)
    f.samples = f.samples * (rng.normal(size=f.samples.shape) + 1j * rng.normal(size=f.samples.shape))
    odd = f.samples - f.samples[..., ::-1]
    want = 0.5 * cumulative_trapezoid(odd, dx=f.spacings[-1], axis=-1, initial=0.0)
    assert np.array_equal(apply_phys_op("P", f).samples, want)


def test_import_leaves_out_scipy_integrate():
    code = "import sys, hfourier, hfourier.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_primitive_derivative_identity():
    fo = SampledField.from_function(
        lambda y, e, s: (0.3 + s + 0.2 * s**2) * gauss(y, e, s), 1, (5, 5, 5), (49, 49, 49)
    )
    dP = apply_phys_op("S", apply_phys_op("P", fo))
    odd = 0.5 * (fo.samples - fo.samples[..., ::-1])
    assert np.abs(dP.samples - odd).max() < 1.5e-2


def test_commutator_gives_vertical_field():
    f = small_field(lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)) * (1 + 0.3 * y * s), points=41)
    XiX = apply_phys_op("Xi", apply_phys_op("X", f))
    XXi = apply_phys_op("X", apply_phys_op("Xi", f))
    S = apply_phys_op("S", f)
    resid = 0.25 * (XiX.samples - XXi.samples) - S.samples
    inner = resid[6:-6, 6:-6, 6:-6]
    assert np.abs(inner).max() < 1.5e-2


def test_multiplications():
    f = small_field()
    y = f.y_axis[:, None, None]
    e = f.eta_axis[None, :, None]
    s = f.s_axis[None, None, :]
    assert np.allclose(apply_phys_op("M2", f).samples, (y**2 + e**2) * f.samples)
    assert np.allclose(apply_phys_op("M0", f).samples, -1j * s * f.samples)
    assert np.allclose(apply_phys_op("MH", f).samples, (y**2 + e**2 - 1j * s) * f.samples)
    assert np.allclose(apply_phys_op("Mplus", f).samples, (y + 1j * e) * f.samples)
    assert np.allclose(apply_phys_op("Mminus", f).samples, (y - 1j * e) * f.samples)
    with pytest.raises(ValueError):
        apply_phys_op("nope", f)


def test_left_invariance_fourth_order():
    # X (tau_w f) = tau_w (X f) for the left translate tau_w f(v) = f(w . v); with
    # f Gaussian, (X f)(u) = (d_y f + 2 eta d_s f)(u) = (-2 u_y - 4 u_eta u_s) f(u)
    w = np.array([0.3, -0.2, 0.4])

    def translated(fn):
        return lambda y, e, s: fn(*np.moveaxis(group_mul(w, np.stack([y, e, s], axis=-1)), -1, 0))

    def err(points):
        f = SampledField.from_function(translated(gauss), 1, (5, 5, 5), (points,) * 3)
        lhs = apply_phys_op("X", f)
        rhs = SampledField.from_function(
            translated(lambda y, e, s: (-2.0 * y - 4.0 * e * s) * gauss(y, e, s)),
            1, (5, 5, 5), (points,) * 3)
        k = points // 6
        return np.abs(lhs.samples - rhs.samples)[k:-k, k:-k, k:-k].max()

    e1, e2 = err(21), err(41)
    assert e2 < e1 / 8.0  # fourth-order-ish decay under refinement


def test_right_invariant_fields_differ():
    f = small_field(lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)) * (1 + s))
    a = apply_phys_op("X", f).samples
    b = apply_phys_op("Xtilde", f).samples
    assert np.abs(a - b).max() > 1e-3


# ---- containers ------------------------------------------------------------

def random_field(d, data, lengths):
    """A field of the drawn shape whose samples include -0.0 and subnormals."""
    ny, ne, ns = (data.draw(st.sampled_from(lengths)) for _ in range(3))
    shape = (ny,) * d + (ne,) * d + (ns,)
    parts = [data.draw(arrays(float, shape, elements=st.floats(allow_nan=False,
                                                               allow_infinity=False)))
             for _ in range(2)]
    samples = np.empty(shape, dtype=complex)
    samples.real, samples.imag = parts  # not re + 1j * im, which turns -0.0 into 0.0
    samples.flat[0] = complex(-0.0, -0.0)
    samples.flat[-1] = complex(5e-324, -2.5e-310)
    extents = data.draw(st.tuples(*[st.floats(1e-3, 1e3)] * 3))
    return SampledField(samples, d, extents)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=40)
@given(d=dims, data=st.data())
def test_binary_roundtrip(d, data, tmp_path_factory):
    f = random_field(d, data, [3, 5, 7] if d == 1 else [3, 5])
    path = tmp_path_factory.mktemp("hfld") / "field.hfld"
    write_field(f, path)
    g = read_field(path)
    assert g.d == d and g.extents == f.extents
    assert np.array_equal(bits(g.samples), bits(f.samples))


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFLD" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_field(path)


def _written_field(tmp_path):
    path = tmp_path / "field.hfld"
    write_field(small_field(points=5), path)
    return path, path.read_bytes()


def test_binary_rejects_trailing_bytes(tmp_path):
    path, raw = _written_field(tmp_path)
    path.write_bytes(raw + b"\x00" * 16)
    with pytest.raises(ValueError, match="field.hfld: payload of"):
        read_field(path)


def test_binary_rejects_short_payload(tmp_path):
    path, raw = _written_field(tmp_path)
    path.write_bytes(raw[:-1])
    with pytest.raises(ValueError, match="field.hfld: payload of"):
        read_field(path)
    path.write_bytes(raw[:20])
    with pytest.raises(ValueError, match="field.hfld: truncated header"):
        read_field(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_binary_rejects_non_finite(tmp_path, bad):
    path, raw = _written_field(tmp_path)
    path.write_bytes(raw[:-8] + np.float64(bad).tobytes())
    with pytest.raises(ValueError, match="field.hfld: non-finite sample"):
        read_field(path)


def test_binary_rejects_infinite_extents(tmp_path):
    # infinite extents and spacings agree with each other, so only the
    # extent check stops them
    path, raw = _written_field(tmp_path)
    header_end = len(raw) - 16 * 5**3
    path.write_bytes(raw[:header_end - 48] + np.full(6, np.inf).tobytes() + raw[header_end:])
    with pytest.raises(ValueError, match="field.hfld: extents must be finite and positive"):
        read_field(path)


@pytest.mark.parametrize("extents", [(math.nan, 5.0), (5.0, math.inf), (0.0, 5.0), (-1.0, 5.0)])
def test_fields_refuse_bad_extents(extents):
    with pytest.raises(ValueError, match="extents must be finite and positive"):
        SampledField(np.zeros((5, 5, 5)), 1, extents + (5.0,))
    with pytest.raises(ValueError, match="extents must be finite and positive"):
        YField(np.zeros((5, 5)), 1, extents)


def _csv_rows(tmp_path):
    path = tmp_path / "field.csv"
    field_to_csv(small_field(points=5), path)
    header, *rows = path.read_text().splitlines()
    return path, header, rows


@settings(max_examples=40)
@given(data=st.data())
def test_csv_roundtrip(data, tmp_path_factory):
    f = random_field(1, data, [3, 5, 7])
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    field_to_csv(f, path)
    # rows in any order
    header, *rows = path.read_text().splitlines()
    order = data.draw(st.permutations(range(len(rows))))
    path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
    g = field_from_csv(path)
    assert g.extents == f.extents
    assert np.array_equal(bits(g.samples), bits(f.samples))


def test_csv_tokens_in_grid_order(tmp_path):
    # every number is its shortest repr; rows run y-major, then eta, then s
    f = small_field(points=5)
    f.samples[0, 0, 0] = complex(-0.0, 1e-300)
    f.samples[1, 2, 3] = complex(1e300, -2.5e-310)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    want = [",".join(repr(float(v)) for v in (y, e, s, f.samples[i, j, k].real,
                                               f.samples[i, j, k].imag))
            for i, y in enumerate(f.y_axis) for j, e in enumerate(f.eta_axis)
            for k, s in enumerate(f.s_axis)]
    assert path.read_text().splitlines() == ["y,eta,s,re,im"] + want


def _per_row_csv(header, columns):
    """The CSV writer as it was: one ``%r`` per number, row by row."""
    cells = [cell.ravel().tolist() for cell in np.broadcast_arrays(*map(np.asarray, columns))]
    row = ",".join(["%r"] * len(cells)) + "\n"
    return header + "\n" + "".join(map(row.__mod__, zip(*cells)))


# signed zeros, infinities, nan, subnormals and magnitudes near the ends of the range
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                -1e-310, 1e-300, -1e300, 1.7976931348623157e308]


@settings(max_examples=60)
@given(layout=st.sampled_from(["table d=1", "table d=2", "field", "kernel"]),
       symmetric=st.booleans(), data=st.data())
def test_csv_writer_bytes_are_the_per_row_repr(layout, symmetric, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("writer") / "out.csv"
    odd = st.sampled_from([3, 5])
    if layout.startswith("table"):
        d = int(layout[-1])
        grid = LambdaGrid(0.3, 3.0, data.draw(st.integers(2, 3)))
        shape = (data.draw(st.integers(1, 3 if d == 1 else 2)),) * (2 * d) + (len(grid.lam),)
    else:
        shape = tuple(data.draw(odd) for _ in range(3 if layout == "field" else 2))
    numbers = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))
    values = np.empty(shape, dtype=complex)
    values.real, values.imag = (data.draw(arrays(float, shape, elements=numbers)) for _ in range(2))
    if symmetric:
        # conjugate mirror along the last axis, as a real field's table holds
        # f^(n, m, -lam) = conj f^(n, m, lam): each magnitude with both signs
        half = shape[-1] // 2
        values[..., shape[-1] - half:] = np.conj(values[..., :half][..., ::-1])
    if layout.startswith("table"):
        table_to_csv(SpectralTable(values, grid, d), path)
        header = ",".join(_csv_columns(d))
        columns = [*np.indices(shape, sparse=True)[:-1], grid.lam, values.real, values.imag]
    elif layout == "field":
        fld = SampledField(values, 1, (6.0, 2.5, 1e-3))
        field_to_csv(fld, path)
        header = "y,eta,s,re,im"
        columns = [fld.y_axis[:, None, None], fld.eta_axis[:, None], fld.s_axis,
                   values.real, values.imag]
    else:
        # the kernel command's layout
        y, e = np.linspace(-6.0, 6.0, shape[0]), np.linspace(-4.0, 4.0, shape[1])
        header, columns = "y,eta,re,im", [y[:, None], e, values.real, values.imag]
        _write_csv(path, header, columns)
    assert path.read_bytes() == _per_row_csv(header, columns).encode()


def test_csv_rejects_inf(tmp_path):
    path, header, rows = _csv_rows(tmp_path)
    rows[7] = ",".join(rows[7].split(",")[:3] + ["inf", "0.0"])
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match="field.csv: non-finite entry"):
        field_from_csv(path)


def test_csv_rejects_duplicate_rows(tmp_path):
    path, header, rows = _csv_rows(tmp_path)
    path.write_text("\n".join([header] + rows + [rows[3]]) + "\n")
    with pytest.raises(ValueError, match="field.csv: duplicate"):
        field_from_csv(path)
    path.write_text("\n".join([header] + rows[:-1] + [rows[3]]) + "\n")
    with pytest.raises(ValueError, match="field.csv: duplicate"):
        field_from_csv(path)


def test_csv_rejects_non_uniform_axis(tmp_path):
    # y = -5, -2.5, 0, 2.5, 5 relabelled as -5, -4, 0, 4, 5
    path, header, rows = _csv_rows(tmp_path)
    moved = {"-2.5": "-4.0", "2.5": "4.0"}
    rows = [",".join([moved.get(r.split(",")[0], r.split(",")[0])] + r.split(",")[1:])
            for r in rows]
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match="field.csv: grid axes must be uniform"):
        field_from_csv(path)
